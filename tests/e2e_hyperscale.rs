//! Hyperscale end-to-end suite.
//!
//! Pins the three mechanisms the hyperscale scenario layer rests on:
//!
//! - **Sketch-vs-exact differential fleet**: streaming quantile sketches
//!   track an exact oracle within the documented relative-error bound
//!   (1/256), both on synthetic streams across distribution shapes and on
//!   real simulator output (streaming mode vs the per-flow records of the
//!   identical run);
//! - **Bit-identity**: the open-loop run's full streaming state and its
//!   counters reproduce exactly on a rerun;
//! - **Flow-state reclamation**: completed flows release their slab slot
//!   (occupancy returns to zero in drained runs), and the audit deep
//!   scan's flow-state sweep catches the injected
//!   [`Buggify::FlowReclaimLeak`] regression.

use experiments::hyperscale::{run as hyper_run, HyperScheme, HyperTopo, HyperscaleConfig};
use netsim::{
    AuditConfig, Buggify, FlowSpec, Sim, SimConfig, SimResult, SwitchConfig, Topology,
    ViolationKind,
};
use simcore::{QuantileSketch, SimRng, Time};
use transport::{CcSpec, PrioPlusPolicy};
use workloads::IncastMix;

/// The sketch's guaranteed relative error: buckets are 2^-7-wide in
/// log-space and quantiles report the bucket midpoint, so the reported
/// value is within `value/256` of the exact nearest-rank sample (exact
/// below 128). The `+1` absorbs integer midpoint rounding.
fn within_sketch_bound(sketch: u64, exact: u64) -> bool {
    let tol = exact / 256 + 1;
    sketch.abs_diff(exact) <= tol
}

/// Exact nearest-rank quantile (the definition `QuantileSketch::quantile`
/// mirrors): the sample of rank `clamp(ceil(p/100 * n), 1, n)`.
fn exact_quantile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty());
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

#[test]
fn sketch_differential_fleet_across_distributions() {
    // One generator per distribution shape the scenarios produce: uniform
    // RTT-scale values, heavy-tailed sizes, constant bursts, bimodal
    // short/long mixes, and tiny exact-range values.
    type GenFn = Box<dyn Fn(&mut SimRng) -> u64>;
    let dists: Vec<(&str, GenFn)> = vec![
        ("uniform", Box::new(|r| r.next() % 1_000_000_000)),
        (
            "heavy_tail",
            Box::new(|r| {
                let e = r.next() % 30;
                (1u64 << e) + r.next() % (1 << e).max(1)
            }),
        ),
        ("constant", Box::new(|_| 123_456_789)),
        (
            "bimodal",
            Box::new(|r| {
                if r.next() % 10 < 8 {
                    10_000 + r.next() % 1000
                } else {
                    50_000_000 + r.next() % 1_000_000
                }
            }),
        ),
        ("tiny_exact", Box::new(|r| r.next() % 128)),
    ];
    for (name, gen) in &dists {
        for seed in 0..4u64 {
            let mut rng = SimRng::new(0xD1FF ^ seed);
            let mut sketch = QuantileSketch::new();
            let mut exact = Vec::new();
            let n = 2_000 + (seed as usize) * 777;
            for _ in 0..n {
                let v = gen(&mut rng);
                sketch.add(v);
                exact.push(v);
            }
            exact.sort_unstable();
            for p in [50.0, 90.0, 99.0] {
                let s = sketch.quantile(p).expect("non-empty");
                let e = exact_quantile(&exact, p);
                assert!(
                    within_sketch_bound(s, e),
                    "{name} seed {seed} p{p}: sketch {s} vs exact {e}"
                );
            }
            assert_eq!(sketch.count(), n as u64, "{name} seed {seed}");
            assert_eq!(sketch.min(), Some(exact[0]), "{name} seed {seed}");
            assert_eq!(sketch.max(), Some(exact[n - 1]), "{name} seed {seed}");
        }
    }
}

/// A horizon by which every flow of [`small_fabric_run`] has long finished.
const DRAINED: Time = Time::from_ms(20);

/// A small closed scenario on a k=4 fat-tree, parameterized on streaming
/// mode and horizon: 48 WebSearch-ish flows across all hosts.
fn small_fabric_run(streaming: bool, end_time: Time) -> SimResult {
    let topo = Topology::fat_tree(4, simcore::Rate::from_gbps(100), Time::from_us(1));
    let hosts = topo.hosts.clone();
    let cfg = SimConfig {
        num_prios: 1,
        end_time,
        seed: 7,
        streaming_stats: streaming,
        ..Default::default()
    };
    let mut sim = Sim::new(&topo, cfg, SwitchConfig::default());
    let mut rng = SimRng::new(99);
    let cc = CcSpec::PrioPlusSwift {
        policy: PrioPlusPolicy {
            probe: false,
            ..PrioPlusPolicy::paper_default(4)
        },
    };
    for i in 0..48u64 {
        let src = rng.choose_index(hosts.len());
        let mut dst = rng.choose_index(hosts.len() - 1);
        if dst >= src {
            dst += 1;
        }
        let size = 20_000 + rng.next() % 500_000;
        let start = Time::from_us(rng.next() % 200);
        let spec = FlowSpec {
            src: hosts[src],
            dst: hosts[dst],
            size,
            start,
            phys_prio: 0,
            virt_prio: (i % 4) as u8,
            tag: i,
        };
        sim.add_flow(spec, |p| cc.make(p, start));
    }
    sim.run()
}

#[test]
fn streaming_sketches_match_exact_records_of_the_same_run() {
    let exact_run = small_fabric_run(false, DRAINED);
    let stream_run = small_fabric_run(true, DRAINED);
    // Same simulation either way: streaming only changes result assembly.
    assert_eq!(exact_run.counters.events, stream_run.counters.events);
    assert!(stream_run.records.is_empty(), "streaming keeps no records");
    assert!(exact_run.streaming.is_none());
    let st = stream_run.streaming.as_deref().expect("streaming on");

    let mut fct_ps: Vec<u64> = exact_run
        .finished()
        .map(|r| (r.finish.expect("finished") - r.start).as_ps())
        .collect();
    assert!(!fct_ps.is_empty());
    fct_ps.sort_unstable();
    assert_eq!(st.finished, fct_ps.len() as u64);
    let delivered: u64 = exact_run.finished().map(|r| r.size).sum();
    assert_eq!(st.finished_bytes, delivered);
    for p in [50.0, 90.0, 99.0] {
        let s = st.fct_ps.quantile(p).expect("non-empty");
        let e = exact_quantile(&fct_ps, p);
        assert!(
            within_sketch_bound(s, e),
            "p{p}: sketch {s} ps vs exact {e} ps"
        );
    }
    // Per-virtual-class sketch counts add up to the total.
    let by_virt: u64 = st.fct_ps_by_virt.iter().map(|s| s.count()).sum();
    assert_eq!(by_virt, st.finished);
    assert_eq!(stream_run.completion_rate(), 1.0);

    // A horizon that censors flows: the streaming run has no records to
    // count, and must still report the same shortfall as the exact one.
    let cut = Time::from_us(300);
    let exact_cut = small_fabric_run(false, cut);
    let stream_cut = small_fabric_run(true, cut);
    assert!(exact_cut.completion_rate() < 1.0, "horizon censors flows");
    assert_eq!(stream_cut.completion_rate(), exact_cut.completion_rate());
}

#[test]
fn open_loop_hyperscale_runs_across_backends_bit_identically() {
    // The full stack — open-loop injection, slab reclamation, streaming
    // sketches — on the downscaled hyperscale config, run twice.
    let run = || {
        let cfg = HyperscaleConfig {
            duration: Time::from_us(500),
            ..HyperscaleConfig::quick(HyperScheme::PrioPlus)
        };
        hyper_run(&cfg)
    };
    let base = run();
    assert!(base.flows_total > 50, "scenario too small to be meaningful");
    assert!(base.finished > 0);
    // Reclamation happens when the *sender* sees the final ACK, one
    // half-RTT after the receiver counts the flow finished — so at the
    // end-time cutoff a handful of finished flows can still hold state.
    assert!(base.flows_reclaimed <= base.finished);
    assert!(
        base.finished - base.flows_reclaimed <= base.flow_live_peak,
        "unreclaimed gap {} exceeds peak concurrency {}",
        base.finished - base.flows_reclaimed,
        base.flow_live_peak
    );
    assert!(base.flows_reclaimed > base.finished * 9 / 10);
    // Peak live state must be far below the trace length once the run is
    // long enough to cycle flows through completion.
    assert!(
        base.flow_live_peak < base.flows_total,
        "no reclamation visible: peak {} of {} flows",
        base.flow_live_peak,
        base.flows_total
    );
    let r = run();
    assert_eq!(r.streaming_fingerprint, base.streaming_fingerprint);
    assert_eq!(r.events, base.events);
    assert_eq!(r.flows_total, base.flows_total);
    assert_eq!(r.flow_live_peak, base.flow_live_peak);
    // The same entries peak together; and the queue's memory follows that
    // peak, not a container's history (the sorted-`Vec` buckets of an
    // earlier calendar queue each kept the capacity they once grew to, two
    // orders of magnitude past this bound).
    assert_eq!(r.sched_pending_peak, base.sched_pending_peak);
    let entry = std::mem::size_of::<simcore::Entry<netsim::Event>>() as u64;
    assert!(
        r.sched_bytes_peak <= 4 * r.sched_pending_peak * entry,
        "queue holds {} B for a peak of {} entries of {entry} B",
        r.sched_bytes_peak,
        r.sched_pending_peak
    );
}

#[test]
fn hyperscale_runs_on_the_three_tier_wan_fabric() {
    let cfg = HyperscaleConfig {
        topo: HyperTopo::ThreeTierWan(netsim::ThreeTierWanSpec::tiny()),
        duration: Time::from_us(500),
        incast: Some(IncastMix {
            period: Time::from_us(100),
            fanin: 4,
            bytes: 10_000,
        }),
        ..HyperscaleConfig::quick(HyperScheme::Dctcp)
    };
    let r = hyper_run(&cfg);
    assert!(r.flows_total > 0);
    assert!(r.finished > 0);
    assert!(r.fct_us.p99 >= r.fct_us.p50);
}

/// Closed two-host run where every flow finishes well before `end_time`,
/// so the slab must drain completely.
fn drained_run(buggify: Option<Buggify>) -> SimResult {
    let topo = Topology::fat_tree(4, simcore::Rate::from_gbps(100), Time::from_us(1));
    let hosts = topo.hosts.clone();
    let cfg = SimConfig {
        num_prios: 1,
        end_time: Time::from_ms(50),
        seed: 3,
        ..Default::default()
    };
    let sw = SwitchConfig {
        buggify,
        ..Default::default()
    };
    let mut sim = Sim::new(&topo, cfg, sw);
    sim.enable_audit_with(AuditConfig {
        panic_on_violation: false,
        deep_every: 16,
        ..Default::default()
    });
    let cc = CcSpec::Swift {
        queuing: Time::from_us(4),
        scaling: false,
    };
    for i in 0..12u64 {
        let spec = FlowSpec::new(
            hosts[i as usize % 4],
            hosts[4 + i as usize % 4],
            200_000,
            Time::from_us(i * 10),
        );
        sim.add_flow(spec, |p| cc.make(p, Time::from_us(i * 10)));
    }
    sim.run()
}

#[test]
fn flow_slab_drains_to_zero_when_every_flow_completes() {
    let res = drained_run(None);
    assert_eq!(res.completion_rate(), 1.0);
    let c = &res.counters;
    assert_eq!(c.flows_total, 12);
    assert_eq!(
        c.flows_reclaimed, c.flows_total,
        "every completed flow must release its slab slot"
    );
    // Up-front registration allocates every slab slot before the first
    // completion, so peak == total here; the open-loop test above is the
    // one that pins peak << total. What matters in the closed case is the
    // *drain*: reclaimed == total means end-of-run occupancy is zero.
    assert_eq!(c.flow_slab_slots, c.flow_live_peak, "slots beyond peak mean slot leaks");
    assert!(c.flow_live_bytes_peak > 0);
    let report = res.audit.as_ref().expect("audit enabled");
    assert_eq!(
        report.total_violations, 0,
        "clean run must stay clean: {:?}",
        report.violations
    );
}

#[test]
fn injected_reclamation_leak_is_caught_by_the_audit_sweep() {
    let res = drained_run(Some(Buggify::FlowReclaimLeak));
    let c = &res.counters;
    assert_eq!(c.flows_reclaimed, 0, "buggify must suppress reclamation");
    let report = res.audit.as_ref().expect("audit enabled");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::FlowStateLeak),
        "leak not caught: {:?}",
        report.violations
    );
    // The leak is observational: flows still complete correctly.
    assert_eq!(res.completion_rate(), 1.0);
}

#[test]
fn retransmit_counts_survive_reclamation() {
    // Lossy small-buffer run: drops force retransmissions; the snapshot
    // taken at slab release must preserve the per-flow retransmit count in
    // the records.
    let topo = Topology::fat_tree(4, simcore::Rate::from_gbps(100), Time::from_us(1));
    let hosts = topo.hosts.clone();
    let cfg = SimConfig {
        num_prios: 1,
        end_time: Time::from_ms(50),
        seed: 5,
        ..Default::default()
    };
    let sw = SwitchConfig {
        pfc_enabled: false,
        buffer_bytes: 150_000,
        ..Default::default()
    };
    let mut sim = Sim::new(&topo, cfg, sw);
    let cc = CcSpec::Swift {
        queuing: Time::from_us(4),
        scaling: false,
    };
    for i in 0..8u64 {
        let spec = FlowSpec::new(hosts[i as usize % 8], hosts[(i as usize + 8) % 16], 1_000_000, Time::ZERO);
        sim.add_flow(spec, |p| cc.make(p, Time::ZERO));
    }
    let res = sim.run();
    assert!(res.counters.drops > 0, "scenario must actually drop");
    assert_eq!(res.completion_rate(), 1.0);
    let retx: u64 = res.records.iter().map(|r| r.retransmits).sum();
    assert!(retx > 0, "drops without retransmits recorded");
    assert_eq!(res.counters.flows_reclaimed, 8);
}
