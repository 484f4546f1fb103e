//! Snapshot/warm-start end-to-end suite — the pin for the third tentpole
//! of the batching/SoA/snapshot PR.
//!
//! - **Resume bit-identity (headline)**: a CC matrix of incast scenarios,
//!   interrupted mid-run, snapshotted, restored, and finished, must
//!   reproduce the uninterrupted summary byte-for-byte on every scheduler
//!   backend, with the invariant audit clean on both halves — and, the
//!   queue being cloned rather than rebuilt, the calendar's own work
//!   profile must come out equal too.
//! - **Mid-fault resume**: the same, snapshotting while a link is down, a
//!   pause storm is pinned and a link is degraded.
//! - **Digest soundness**: [`netsim::Sim::state_digest`] survives a
//!   snapshot round-trip unchanged and is backend-agnostic.
//! - **Completeness fleet**: buggify-style tampers ([`StateTamper`])
//!   mutate one class of simulator state at a time — counters, RNG
//!   streams, port state, the event queue, a live flow's reassembly point,
//!   a monitor's baseline, streaming sketches — and the digest must
//!   notice every one; classes absent from a run must report `false` and
//!   leave the digest alone.
//! - **Warm-start differential**: `experiments::sweep::run_warm` over a
//!   prefix-sharing config family must be bit-identical to cold
//!   per-config runs, serial and parallel, with the cache accounting
//!   exactly one warmup per group.

use experiments::golden::summarize;
use experiments::micro::{Micro, MicroEnv};
use experiments::sweep::{run_warm, WarmCache};
use netsim::{
    FaultSchedule, FlowSpec, NoiseModel, SchedKind, Sim, SimConfig, SimResult, StateTamper,
    SwitchConfig, Topology,
};
use simcore::{Rate, Time};
use transport::{CcSpec, PrioPlusPolicy};

/// The CC matrix: every transport family the simulator ships, by name.
/// HPCC needs INT-enabled switches; the scenario builder handles that.
fn cc_matrix() -> Vec<(&'static str, CcSpec)> {
    vec![
        (
            "prioplus_swift",
            CcSpec::PrioPlusSwift {
                policy: PrioPlusPolicy::paper_default(2),
            },
        ),
        (
            "prioplus_ledbat",
            CcSpec::PrioPlusLedbat {
                policy: PrioPlusPolicy::paper_default(2),
            },
        ),
        (
            "swift",
            CcSpec::Swift {
                queuing: Time::from_us(4),
                scaling: false,
            },
        ),
        (
            "ledbat",
            CcSpec::Ledbat {
                queuing: Time::from_us(4),
            },
        ),
        (
            "dctcp",
            CcSpec::D2tcp {
                deadline_factor: None,
            },
        ),
        (
            "d2tcp",
            CcSpec::D2tcp {
                deadline_factor: Some(2.0),
            },
        ),
        (
            "swift_weighted",
            CcSpec::SwiftWeighted {
                queuing: Time::from_us(4),
                weight: 2.0,
            },
        ),
        ("hpcc", CcSpec::Hpcc),
        ("blast", CcSpec::Blast),
    ]
}

/// Staggered 6-sender incast over one bottleneck with testbed noise —
/// enough congestion to exercise PFC, ECN, queue growth, and (for lossy
/// configs) retransmission state on both sides of the snapshot horizon.
fn incast(cc: &CcSpec, sched: SchedKind, audit: bool) -> Micro {
    incast_with_faults(cc, sched, audit, None)
}

/// [`incast`] with a fault schedule installed. Hosts are `0..=6` (0 is the
/// receiver), the switch is node 7, and switch port `i` faces host `i`.
fn incast_with_faults(
    cc: &CcSpec,
    sched: SchedKind,
    audit: bool,
    faults: Option<FaultSchedule>,
) -> Micro {
    let mut m = Micro::build(&MicroEnv {
        senders: 6,
        end: Time::from_ms(3),
        trace: false,
        noise: NoiseModel::testbed(),
        seed: 7,
        sched,
        faults,
        switch: SwitchConfig {
            int_enabled: matches!(cc, CcSpec::Hpcc),
            ..Default::default()
        },
        ..Default::default()
    });
    if audit {
        m.sim.enable_audit();
    }
    for s in 1..=6usize {
        m.add_flow(
            s,
            120_000 + 40_000 * s as u64,
            Time::from_us(20 * s as u64),
            0,
            (s % 2) as u8,
            cc,
        );
    }
    m
}

/// Snapshot horizon for the matrix: mid-ramp, while queues are hot, flows
/// are live, and in-flight packets sit in the arena.
fn horizon() -> Time {
    Time::from_us(300)
}

fn assert_clean_audit(res: &SimResult, what: &str) {
    let report = res.audit.as_ref().expect("audit enabled");
    assert_eq!(
        report.total_violations, 0,
        "{what}: audit violations {:?}",
        report.violations
    );
}

/// Headline: for every CC scheme and every scheduler backend, interrupting
/// the run at the horizon, snapshotting, dropping the original simulator,
/// and finishing on a restore is byte-identical to running straight
/// through — and the invariant audit (whose mirror rides in the snapshot)
/// stays clean on both paths. The snapshot clones the scheduler as it
/// stands, so the resumed run's backend diagnostics — operations, touches,
/// rebuilds, peak population — are the straight run's too (checked on the
/// calendar queue; the binary heap keeps no work profile). Peak *bytes* are
/// read from buffer capacities, and a clone's buffers are sized to their
/// length, so that one is each queue's own and only bounded here.
#[test]
fn cc_matrix_snapshot_resume_is_bit_identical_on_every_backend() {
    // Mid-transfer (every flow in flight, the queue populated) and late (the
    // fast schemes have drained, only timers and `End` pending).
    let horizons = [Time::from_us(100), horizon()];
    for (name, cc) in cc_matrix() {
        for kind in SchedKind::ALL {
            let straight_res = incast(&cc, kind, true).sim.run();
            assert_clean_audit(&straight_res, name);
            let straight = summarize(&straight_res);

            for at in horizons {
                let mut m = incast(&cc, kind, true);
                m.sim.run_until(at);
                let snap = m.sim.snapshot();
                drop(m);
                let resumed_res = Sim::restore(&snap).run();
                assert_clean_audit(&resumed_res, name);
                let resumed = summarize(&resumed_res);

                assert_eq!(
                    straight,
                    resumed,
                    "{name} on {}: snapshot/resume at {at} changed the simulation",
                    kind.name(),
                );
                if kind == SchedKind::Calendar {
                    let diag = |r: &SimResult| {
                        let c = &r.counters;
                        assert!(
                            c.sched_ops > 0 && c.sched_touches > 0,
                            "{name}: no work profile"
                        );
                        // The bound `e2e_hyperscale` puts on the queue's
                        // memory holds for a fork's own buffers too.
                        let entry = std::mem::size_of::<simcore::Entry<netsim::Event>>() as u64;
                        assert!(
                            c.sched_bytes_peak <= 4 * c.sched_pending_peak * entry,
                            "{name}: queue holds {} B for a peak of {} entries",
                            c.sched_bytes_peak,
                            c.sched_pending_peak
                        );
                        [
                            c.sched_ops,
                            c.sched_touches,
                            c.sched_rebuilds,
                            c.sched_pending_peak,
                        ]
                    };
                    assert_eq!(
                        diag(&straight_res),
                        diag(&resumed_res),
                        "{name}: resumed at {at}, the calendar queue is not the straight run's \
                         (ops, touches, rebuilds, pending peak)"
                    );
                }
            }
        }
    }
}

/// A link's fault state lives on its ports, so it rides along with the
/// nodes: a snapshot taken while one link is down, the bottleneck egress is
/// storm-pinned and a third link is degraded resumes byte-identically on
/// every backend, audit clean, and the digest round-trips mid-fault.
#[test]
fn snapshot_with_a_link_down_and_a_storm_pinned_resumes_bit_identically() {
    let cc = CcSpec::PrioPlusSwift {
        policy: PrioPlusPolicy::paper_default(2),
    };
    let us = Time::from_us;
    // Every regime straddles the 300 µs snapshot horizon.
    let mut faults = FaultSchedule::new();
    faults
        .link_flap(7, 2, us(100), us(450))
        .pause_storm(7, 0, 0, us(250), us(400))
        .degrade(3, 0, us(200), us(500), 0.5, us(2));
    for kind in SchedKind::ALL {
        let run = |faults| incast_with_faults(&cc, kind, true, Some(faults));
        let straight_res = run(faults.clone()).sim.run();
        assert_clean_audit(&straight_res, "mid-fault straight run");
        let c = &straight_res.counters;
        assert_eq!(c.fault_events, 6, "all six transitions applied");
        assert!(
            c.fault_link_drops + c.fault_ctrl_drops > 0,
            "the flap must catch packets in flight"
        );

        let mut m = run(faults.clone());
        m.sim.run_until(horizon());
        let snap = m.sim.snapshot();
        let digest = m.sim.state_digest();
        drop(m);
        let resumed = Sim::restore(&snap);
        assert_eq!(digest, resumed.state_digest(), "digest moved across restore");
        let resumed_res = resumed.run();
        assert_clean_audit(&resumed_res, "mid-fault resumed run");
        assert_eq!(
            summarize(&straight_res),
            summarize(&resumed_res),
            "mid-fault snapshot/resume on {} changed the simulation",
            kind.name()
        );
        assert_eq!(
            (c.fault_events, c.fault_link_drops, c.fault_ctrl_drops),
            (
                resumed_res.counters.fault_events,
                resumed_res.counters.fault_link_drops,
                resumed_res.counters.fault_ctrl_drops
            ),
            "fault counters diverged after resume"
        );
    }
}

/// A snapshot is a pure fork point: restoring twice from the same snapshot
/// and finishing both forks yields byte-identical results (warm-start
/// sweeps restore one snapshot once per group member). The forks copy the
/// state only: they run in the original's `Env`.
#[test]
fn one_snapshot_forks_into_identical_runs() {
    let cc = CcSpec::PrioPlusSwift {
        policy: PrioPlusPolicy::paper_default(2),
    };
    let mut m = incast(&cc, SchedKind::default(), false);
    m.sim.run_until(horizon());
    let snap = m.sim.snapshot();
    let (a, b) = (Sim::restore(&snap), Sim::restore(&snap));
    assert!(
        a.shares_env_with(&b) && a.shares_env_with(&m.sim),
        "a fork copied its Env (config, routing table) instead of sharing it"
    );
    drop(m);
    let (a, b) = (summarize(&a.run()), summarize(&b.run()));
    assert_eq!(a, b, "two forks of one snapshot diverged");
}

/// The state digest survives a snapshot round-trip unchanged and — because
/// it hashes the queue as a set of entries, not in a backend's storage
/// order — is identical across scheduler backends at the same simulated
/// instant.
#[test]
fn state_digest_round_trips_and_is_backend_agnostic() {
    let cc = CcSpec::PrioPlusSwift {
        policy: PrioPlusPolicy::paper_default(2),
    };
    let mut digests = Vec::new();
    for kind in SchedKind::ALL {
        let mut m = incast(&cc, kind, false);
        m.sim.run_until(horizon());
        let original = m.sim.state_digest();
        let restored = Sim::restore(&m.sim.snapshot()).state_digest();
        assert_eq!(
            original,
            restored,
            "snapshot round-trip moved the digest on {}",
            kind.name()
        );
        digests.push(original);
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "state digest differs across scheduler backends: {digests:016x?}"
    );
}

/// Streaming-stats run for the Sketch tamper class: `MicroEnv` has no
/// streaming knob, so build the Sim directly.
fn streaming_sim() -> Sim {
    let topo = Topology::single_switch(4, Rate::from_gbps(100), Time::from_us(3));
    let cfg = SimConfig {
        end_time: Time::from_ms(2),
        seed: 11,
        trace_flows: false,
        streaming_stats: true,
        ..Default::default()
    };
    let mut sim = Sim::new(&topo, cfg, SwitchConfig::default());
    let cc = CcSpec::Swift {
        queuing: Time::from_us(4),
        scaling: false,
    };
    for s in 1..=4u32 {
        let spec = FlowSpec::new(s, 0, 200_000, Time::from_us(10 * s as u64));
        let start = spec.start;
        sim.add_flow(spec, |p| cc.make(p, start));
    }
    sim
}

/// Completeness fleet, part 1: on a plain run, the Counter, Rng, PortState,
/// Queue and FlowRecv tampers land and move the digest; the Sketch and
/// Monitor classes are absent, so the hooks report `false` and the digest
/// must not move.
#[test]
fn tamper_fleet_packet_run_counters_and_rng() {
    let cc = CcSpec::Swift {
        queuing: Time::from_us(4),
        scaling: false,
    };
    let mut m = incast(&cc, SchedKind::default(), false);
    // Earlier than `horizon()`: Swift has drained the incast by then, and
    // FlowRecv needs a flow in flight.
    m.sim.run_until(Time::from_us(150));
    assert!(
        m.sim.live_flows() > 0,
        "no flow in flight at the tamper point"
    );
    let base = m.sim.state_digest();
    let snap = m.sim.snapshot();
    for tamper in [
        StateTamper::Counter,
        StateTamper::Rng,
        StateTamper::PortState,
        StateTamper::Queue,
        StateTamper::FlowRecv,
    ] {
        let mut fork = Sim::restore(&snap);
        assert!(
            fork.snap_mutate(tamper),
            "{tamper:?} must land on a packet run"
        );
        assert_ne!(
            base,
            fork.state_digest(),
            "state digest is blind to {tamper:?}"
        );
    }
    for tamper in [StateTamper::Sketch, StateTamper::Monitor] {
        let mut fork = Sim::restore(&snap);
        assert!(
            !fork.snap_mutate(tamper),
            "{tamper:?} cannot land on a run without that state class"
        );
        assert_eq!(
            base,
            fork.state_digest(),
            "a no-op {tamper:?} must not move the digest"
        );
    }
}

/// Completeness fleet, part 1b: a monitor's `last_tx` is the baseline of
/// its next throughput sample, so it is state; with a monitor registered the
/// tamper lands and the digest notices. And with no flow in flight there is
/// no reassembly state to tamper with.
#[test]
fn tamper_fleet_monitor_baseline_and_idle_flow_slab() {
    let cc = CcSpec::Swift {
        queuing: Time::from_us(4),
        scaling: false,
    };
    let monitored = || {
        let mut m = incast(&cc, SchedKind::default(), false);
        m.monitor_bottleneck_throughput(Time::from_us(50));
        m.sim
    };
    let mut sim = monitored();
    sim.run_until(horizon());
    let base = sim.state_digest();
    let snap = sim.snapshot();
    let mut fork = Sim::restore(&snap);
    assert_eq!(base, fork.state_digest(), "digest moved across restore");
    assert!(
        fork.snap_mutate(StateTamper::Monitor),
        "Monitor tamper must land when a monitor is registered"
    );
    assert_ne!(
        base,
        fork.state_digest(),
        "digest is blind to a monitor's baseline"
    );
    // The monitored run resumes bit-identically, series included.
    let straight = monitored().run();
    let resumed = Sim::restore(&snap).run();
    assert_eq!(summarize(&straight), summarize(&resumed));
    assert_eq!(
        straight.monitors[0].1.v, resumed.monitors[0].1.v,
        "throughput series diverged"
    );

    let mut idle = Micro::build(&MicroEnv::default()).sim;
    let base = idle.state_digest();
    assert!(
        !idle.snap_mutate(StateTamper::FlowRecv),
        "FlowRecv cannot land with no flow in flight"
    );
    assert_eq!(
        base,
        idle.state_digest(),
        "a no-op FlowRecv must not move the digest"
    );
}

/// Completeness fleet, part 2: the Sketch tamper lands on a streaming run
/// and the digest notices (via the sketch fingerprint).
#[test]
fn tamper_fleet_streaming_sketch() {
    let mut sim = streaming_sim();
    sim.run_until(Time::from_us(400));
    let base = sim.state_digest();
    let snap = sim.snapshot();
    let mut fork = Sim::restore(&snap);
    assert!(
        fork.snap_mutate(StateTamper::Sketch),
        "Sketch tamper must land when streaming_stats is on"
    );
    assert_ne!(base, fork.state_digest(), "digest is blind to the sketch");
    // And the streaming run itself resumes bit-identically.
    let straight = summarize(&streaming_sim().run());
    let resumed = summarize(&Sim::restore(&snap).run());
    assert_eq!(straight, resumed, "streaming run diverged after resume");
}

/// One config of the prefix-sharing family: `seed` selects the warmup
/// prefix (the group key); the probe fields vary per config and only take
/// effect after the shared horizon.
#[derive(Clone)]
struct ProbeCfg {
    seed: u64,
    probe_size: u64,
    probe_virt: u8,
}

/// Shared warmup: 4 long flows ramping from t≈0. Everything here — and
/// nothing of the probe — is a function of `seed`, honoring `run_warm`'s
/// honest-key contract.
fn warm_prefix(seed: u64) -> Micro {
    let mut m = Micro::build(&MicroEnv {
        senders: 5,
        end: Time::from_ms(3),
        trace: false,
        noise: NoiseModel::testbed(),
        seed,
        ..Default::default()
    });
    let cc = CcSpec::PrioPlusSwift {
        policy: PrioPlusPolicy::paper_default(2),
    };
    for s in 1..=4usize {
        m.add_flow(s, 400_000, Time::from_us(10 * s as u64), 0, (s % 2) as u8, &cc);
    }
    m
}

/// Per-config continuation: sender 5 probes the warmed-up bottleneck.
/// Added strictly after the horizon in both the cold and warm paths, so
/// event sequence numbers match between them.
fn add_probe(sim: &mut Sim, cfg: &ProbeCfg) {
    let start = Time::from_us(700);
    let spec = FlowSpec {
        virt_prio: cfg.probe_virt,
        tag: cfg.probe_virt as u64,
        ..FlowSpec::new(5, 0, cfg.probe_size, start)
    };
    let cc = CcSpec::PrioPlusSwift {
        policy: PrioPlusPolicy::paper_default(2),
    };
    sim.add_flow(spec, |p| cc.make(p, start));
}

/// Warm-start differential: an 8-config family (2 warmup prefixes × 4
/// probes) swept through `run_warm` must match cold per-config runs
/// byte-for-byte — serial and parallel — with exactly one warmup miss per
/// prefix group.
#[test]
fn warm_start_sweep_matches_cold_runs_bit_for_bit() {
    let warm_until = Time::from_us(600);
    let configs: Vec<ProbeCfg> = [21u64, 22]
        .into_iter()
        .flat_map(|seed| {
            (0..4u8).map(move |i| ProbeCfg {
                seed,
                probe_size: 100_000 + 50_000 * i as u64,
                probe_virt: i % 2,
            })
        })
        .collect();

    // Cold reference: every config simulates its own warmup prefix. The
    // probe is added after run_until in this path too — adding it up
    // front would assign different event sequence numbers than the warm
    // path and the comparison would not be apples-to-apples.
    let cold: Vec<String> = configs
        .iter()
        .map(|cfg| {
            let mut m = warm_prefix(cfg.seed);
            m.sim.run_until(warm_until);
            add_probe(&mut m.sim, cfg);
            summarize(&m.sim.run())
        })
        .collect();

    for jobs in [1, 3] {
        let report = run_warm(
            &configs,
            jobs,
            |cfg| cfg.seed,
            |cfg| {
                let mut m = warm_prefix(cfg.seed);
                m.sim.run_until(warm_until);
                m.sim.snapshot()
            },
            |cfg, mut sim| {
                add_probe(&mut sim, cfg);
                summarize(&sim.run())
            },
        );
        assert_eq!(
            report.cache,
            WarmCache {
                groups: 2,
                hits: 6,
                misses: 2,
            },
            "cache accounting (jobs={jobs})"
        );
        assert_eq!(
            report.results, cold,
            "warm-start sweep diverged from cold runs (jobs={jobs})"
        );
    }
}
