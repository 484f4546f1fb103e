//! End-to-end runs with the invariant-audit layer enabled.
//!
//! Two claims are established here. First, the audit is *clean* on the
//! seed simulator: full runs across the congestion-control matrix report
//! zero violations, so every audit invariant is a real property of the
//! code, not an aspiration. Second, the audit *detects*: each `Buggify`
//! fault injection produces at least one violation of the expected kind.
//! Together these pin the audit's false-positive and false-negative rate
//! at zero for the faults we can inject, and each is caught by the checks
//! of the event that introduced it. The audit's tallies also carry
//! across a pump stopped by `run_until` and resumed: it stays clean on
//! both halves of a split run, which equals the straight run.

use experiments::micro::{Micro, MicroEnv};
use netsim::{Buggify, FaultSchedule, Sim, SimResult, SwitchConfig, Violation, ViolationKind};
use simcore::Time;
use transport::{CcSpec, PrioPlusPolicy};

/// A `senders`-way incast with the audit layer on, and `faults` if any,
/// built but not run.
fn audited(
    cc: &CcSpec,
    switch: SwitchConfig,
    senders: usize,
    size: u64,
    faults: Option<FaultSchedule>,
) -> Micro {
    let mut m = Micro::build(&MicroEnv {
        senders,
        end: Time::from_ms(10),
        switch,
        faults,
        ..Default::default()
    });
    m.sim.enable_audit();
    for s in 1..=senders {
        m.add_flow(s, size, Time::ZERO, 0, 0, cc);
    }
    m
}

/// Run [`audited`]'s incast and return the result (including the audit
/// report).
fn run_audited(cc: &CcSpec, switch: SwitchConfig, senders: usize, size: u64) -> SimResult {
    audited(cc, switch, senders, size, None).sim.run()
}

fn kinds(res: &SimResult) -> Vec<ViolationKind> {
    res.audit
        .as_ref()
        .expect("audit enabled")
        .violations
        .iter()
        .map(|v| v.kind)
        .collect()
}

#[test]
fn audit_is_clean_across_the_cc_matrix() {
    let ccs: Vec<(&str, CcSpec, SwitchConfig)> = vec![
        (
            "swift",
            CcSpec::Swift {
                queuing: Time::from_us(4),
                scaling: false,
            },
            SwitchConfig::default(),
        ),
        (
            "prioplus-swift",
            CcSpec::PrioPlusSwift {
                policy: PrioPlusPolicy::paper_default(4),
            },
            SwitchConfig::default(),
        ),
        (
            "ledbat",
            CcSpec::Ledbat {
                queuing: Time::from_us(4),
            },
            SwitchConfig::default(),
        ),
        (
            "dctcp",
            CcSpec::D2tcp {
                deadline_factor: None,
            },
            SwitchConfig::default(),
        ),
        (
            "hpcc",
            CcSpec::Hpcc,
            SwitchConfig {
                int_enabled: true,
                ..Default::default()
            },
        ),
        (
            "swift-weighted",
            CcSpec::SwiftWeighted {
                queuing: Time::from_us(4),
                weight: 2.0,
            },
            SwitchConfig::default(),
        ),
        ("blast", CcSpec::Blast, SwitchConfig::default()),
    ];
    for (name, cc, switch) in ccs {
        let res = run_audited(&cc, switch, 4, 1_000_000);
        let report = res.audit.as_ref().expect("audit enabled");
        assert_eq!(
            report.total_violations, 0,
            "{name}: audit violations {:?}",
            report.violations
        );
        assert_eq!(res.completion_rate(), 1.0, "{name}: incomplete run");
    }
}

#[test]
fn audit_is_clean_under_lossy_dt_drops() {
    // A lossy switch with a small buffer forces real DT drops; the audit's
    // packet-conservation and buffer checks must account for them.
    let switch = SwitchConfig {
        pfc_enabled: false,
        buffer_bytes: 200_000,
        ..Default::default()
    };
    let cc = CcSpec::Swift {
        queuing: Time::from_us(4),
        scaling: false,
    };
    let res = run_audited(&cc, switch, 8, 1_000_000);
    let report = res.audit.as_ref().expect("audit enabled");
    assert_eq!(
        report.total_violations, 0,
        "violations {:?}",
        report.violations
    );
    assert!(res.counters.drops > 0, "scenario must actually drop");
}

#[test]
fn audit_report_is_absent_when_not_enabled() {
    if netsim::audit::env_enabled() {
        // PRIOPLUS_AUDIT force-enables the audit on every Sim;
        // the default-off behavior is unobservable under that opt-in.
        return;
    }
    let mut m = Micro::build(&MicroEnv {
        senders: 2,
        end: Time::from_ms(5),
        ..Default::default()
    });
    assert!(!m.sim.audit_enabled());
    let cc = CcSpec::Swift {
        queuing: Time::from_us(4),
        scaling: false,
    };
    m.add_flow(1, 100_000, Time::ZERO, 0, 0, &cc);
    let res = m.sim.run();
    assert!(res.audit.is_none());
}

#[test]
fn audit_is_purely_observational() {
    // Enabling the audit must not perturb the simulation: identical seeds
    // produce bit-identical flow outcomes with and without it, and the
    // state digest, which folds the other observers, leaves it out.
    let outcome = |audited: bool| {
        let mut m = Micro::build(&MicroEnv {
            senders: 4,
            end: Time::from_ms(10),
            seed: 77,
            ..Default::default()
        });
        if audited {
            m.sim.enable_audit();
        }
        let cc = CcSpec::PrioPlusSwift {
            policy: PrioPlusPolicy::paper_default(4),
        };
        for s in 1..=4 {
            m.add_flow(s, 2_000_000, Time::ZERO, 0, 0, &cc);
        }
        m.sim.run_until(Time::from_ms(5));
        let digest = m.sim.state_digest();
        let res = m.sim.run();
        let records = res
            .records
            .iter()
            .map(|r| (r.finish.map(|t| t.as_ps()), r.delivered, r.retransmits))
            .collect::<Vec<_>>();
        (digest, records)
    };
    assert_eq!(outcome(false), outcome(true));
}

/// Each buggified switch of [`planted`] is caught by the check that owns
/// its invariant.
#[test]
fn injected_dequeue_leak_is_caught() {
    let ks = kinds(&planted(Buggify::DequeueLeak).sim.run());
    let leak = ViolationKind::BufferAccounting;
    assert!(ks.contains(&leak), "leak not caught: {ks:?}");
}

/// Small shared buffer + blast senders force the ingress counters over the
/// pause threshold; the buggified switch pauses one packet late and the
/// audit must see the unpaused over-threshold state.
#[test]
fn injected_pfc_off_by_one_is_caught() {
    let ks = kinds(&planted(Buggify::PfcPauseOffByOne).sim.run());
    let late = ViolationKind::PfcXoffMissed;
    assert!(ks.contains(&late), "off-by-one not caught: {ks:?}");
}

#[test]
fn injected_ecn_below_kmin_is_caught() {
    let ks = kinds(&planted(Buggify::EcnMarkBelowKmin).sim.run());
    let early = ViolationKind::EcnBounds;
    assert!(ks.contains(&early), "below-kmin marks not caught: {ks:?}");
}

/// The audit sees events that wait in the queue's FIFO lanes. On
/// `three_tier_wan` — host, fabric and WAN links: the most link classes of
/// any topology here, twelve declared delays — nearly every packet in
/// flight is referenced from a lane and not from the scheduler backend, so
/// an arena-accounting pass that visited only the backend would report each
/// of them leaked, and a lane whose bookkeeping slipped would fail the
/// queue's own check. The run stops every 20 µs, mid-flight, and the audit
/// scans the whole state at each stop. Declarations are made in a fixed
/// order (by link count, then topology order), so two runs are the same
/// run.
#[test]
fn audit_is_clean_with_packets_in_lanes_across_three_link_classes() {
    use netsim::{AuditConfig, FlowSpec, Sim, SimConfig, ThreeTierWanSpec, Topology};
    let run = || {
        let topo = Topology::three_tier_wan(&ThreeTierWanSpec::tiny());
        let hosts = topo.hosts.clone();
        let cfg = SimConfig {
            num_prios: 1,
            end_time: Time::from_ms(5),
            seed: 23,
            ..Default::default()
        };
        let mut sim = Sim::new(&topo, cfg, SwitchConfig::default());
        sim.enable_audit_with(AuditConfig::default());
        let cc = CcSpec::Swift {
            queuing: Time::from_us(4),
            scaling: false,
        };
        // Every host sends across the WAN, to its mirror in the other
        // datacenter, and to its ToR neighbour.
        for (i, &src) in hosts.iter().enumerate() {
            for dst in [hosts[hosts.len() - 1 - i], hosts[i ^ 1]] {
                let start = Time::from_us(i as u64);
                let spec = FlowSpec {
                    src,
                    dst,
                    size: 60_000,
                    start,
                    phys_prio: 0,
                    virt_prio: 0,
                    tag: i as u64,
                };
                sim.add_flow(spec, |p| cc.make(p, start));
            }
        }
        for k in 1..STOPS {
            sim.run_until(Time::from_us(k * 20));
        }
        sim.run()
    };
    const STOPS: u64 = 250;
    let res = run();
    let report = res.audit.as_ref().expect("audit enabled");
    assert_eq!(report.total_violations, 0, "{:?}", report.violations);
    assert_eq!(report.work.stop_scans, STOPS);
    assert_eq!(res.completion_rate(), 1.0);
    let c = &res.counters;
    assert!(
        c.sched_lane_pushes * 2 * 10 > c.sched_ops * 9,
        "{} of ~{} pushes through a lane: the audit was not looking at lanes",
        c.sched_lane_pushes,
        c.sched_ops / 2
    );
    let finishes =
        |r: &SimResult| -> Vec<_> { r.records.iter().map(|f| (f.flow, f.finish)).collect() };
    let again = run();
    assert_eq!(c.events, again.counters.events);
    assert_eq!(c.sched_lane_pushes, again.counters.sched_lane_pushes);
    assert_eq!(finishes(&res), finishes(&again));
}

/// Staggered 6-sender incast over one bottleneck with testbed noise and
/// two virtual priorities, audited: queues, PFC and (for the lossy
/// schemes) retransmission state on both sides of a split.
fn staggered_incast(cc: &CcSpec) -> Micro {
    let mut m = Micro::build(&MicroEnv {
        senders: 6,
        end: Time::from_ms(3),
        noise: netsim::NoiseModel::testbed(),
        seed: 7,
        switch: SwitchConfig {
            int_enabled: matches!(cc, CcSpec::Hpcc),
            ..Default::default()
        },
        ..Default::default()
    });
    m.sim.enable_audit();
    for s in 1..=6usize {
        let (size, start) = (120_000 + 40_000 * s as u64, Time::from_us(20 * s as u64));
        m.add_flow(s, size, start, 0, (s % 2) as u8, cc);
    }
    m
}

/// A run stopped by `run_until` and finished by `run` is the run straight
/// through, for every transport: byte-identical summary, the audit clean
/// on both halves (its tallies carry across the split), and the queue's
/// diagnostics — operations, peak population, peak bytes — equal, because
/// the same queue serves both halves. Split mid-transfer (every flow in
/// flight) and late (the fast schemes have drained, only timers and `End`
/// pending).
#[test]
fn cc_matrix_split_pump_is_bit_identical_and_audit_clean() {
    let (queuing, policy) = (Time::from_us(4), PrioPlusPolicy::paper_default(2));
    let ccs = [
        ("prioplus_swift", CcSpec::PrioPlusSwift { policy }),
        ("prioplus_ledbat", CcSpec::PrioPlusLedbat { policy }),
        (
            "swift",
            CcSpec::Swift {
                queuing,
                scaling: false,
            },
        ),
        ("ledbat", CcSpec::Ledbat { queuing }),
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
                queuing,
                weight: 2.0,
            },
        ),
        ("hpcc", CcSpec::Hpcc),
        ("blast", CcSpec::Blast),
    ];
    let checked = |res: &SimResult, what: &str| {
        let report = res.audit.as_ref().expect("audit enabled");
        assert_eq!(
            report.total_violations, 0,
            "{what}: {:?}",
            report.violations
        );
        let c = &res.counters;
        assert!(c.sched_ops > 0, "{what}: no queue operations counted");
        let summary = experiments::golden::summarize(res);
        (
            summary,
            c.sched_ops,
            c.sched_pending_peak,
            c.sched_bytes_peak,
        )
    };
    for (name, cc) in ccs {
        let straight = checked(&staggered_incast(&cc).sim.run(), name);
        for at in [Time::from_us(100), Time::from_us(300)] {
            let mut m = staggered_incast(&cc);
            m.sim.run_until(at);
            let split = checked(&m.sim.run(), &format!("{name} split at {at}"));
            assert_eq!(straight, split, "{name}: the split at {at} changed the run");
        }
    }
}

/// The first violation `prepare`'s run reports, checked to be found by the
/// event that introduced its fault rather than by a later scan: it names
/// that event, at its time. The same run stopped just before that time,
/// where the audit scans the whole state, reports the same first
/// violation, so nothing was wrong before the event.
fn first_violation(prepare: impl Fn() -> Sim) -> Violation {
    let first = |res: SimResult| {
        let report = res.audit.expect("audit enabled");
        report.violations.first().cloned().expect("a violation")
    };
    let v = first(prepare().run());
    let e = v
        .event
        .expect("found by the checks of an event, not at a stop");
    assert_eq!(e.time, v.time, "{v}");
    let mut sim = prepare();
    sim.run_until(v.time);
    let again = first(sim.run());
    let key = |v: &Violation| (v.kind, v.time, v.node, v.flow, v.event.map(|e| e.seq));
    assert_eq!(
        key(&again),
        key(&v),
        "the stop before {} found {again}",
        v.time
    );
    v
}

/// The incast's switch: hosts 1..=4 send to host 0 through it, and its
/// port 0 faces host 0.
const SWITCH: u32 = 5;

/// When [`planted`]'s flap holds the bottleneck link down.
const FLAP: std::ops::Range<Time> = Time::from_us(40)..Time::from_us(160);

/// An audited four-sender incast whose switch plants `bug`, built but not
/// run; `FaultDropUnaccounted` gets a flap of the bottleneck link to lose
/// packets on.
fn planted(bug: Buggify) -> Micro {
    let swift = CcSpec::Swift {
        queuing: Time::from_us(4),
        scaling: false,
    };
    let switch = SwitchConfig {
        buggify: Some(bug),
        ..Default::default()
    };
    match bug {
        Buggify::DequeueLeak => audited(&swift, switch, 4, 500_000, None),
        Buggify::PfcPauseOffByOne => {
            let small = SwitchConfig {
                buffer_bytes: 1_000_000,
                ..switch
            };
            audited(&CcSpec::Blast, small, 4, 500_000, None)
        }
        Buggify::EcnMarkBelowKmin => {
            let dctcp = CcSpec::D2tcp {
                deadline_factor: None,
            };
            audited(&dctcp, switch, 4, 200_000, None)
        }
        Buggify::FaultDropUnaccounted => {
            let mut flap = FaultSchedule::new();
            flap.link_flap(SWITCH, 0, FLAP.start, FLAP.end);
            audited(&swift, switch, 4, 500_000, Some(flap))
        }
        Buggify::FlowReclaimLeak => audited(&swift, switch, 4, 200_000, None),
    }
}

/// Every `Buggify` variant is caught by the checks of the event that
/// plants it, and the violation names that event: the switch it arrived
/// at or freed a port of, the node a dead link dropped a packet at, or
/// the sender whose event finished the leaking flow.
#[test]
fn each_buggify_is_caught_at_the_event_that_plants_it() {
    let cases = [
        (Buggify::DequeueLeak, ViolationKind::BufferAccounting),
        (Buggify::PfcPauseOffByOne, ViolationKind::PfcXoffMissed),
        (Buggify::EcnMarkBelowKmin, ViolationKind::EcnBounds),
        (
            Buggify::FaultDropUnaccounted,
            ViolationKind::CounterMismatch,
        ),
        (Buggify::FlowReclaimLeak, ViolationKind::FlowStateLeak),
    ];
    for (bug, kind) in cases {
        let v = first_violation(|| planted(bug).sim);
        let e = v.event.expect("checked by first_violation");
        assert_eq!(v.kind, kind, "{bug:?}: {v}");
        let at_switch = |kinds: &[&str]| kinds.contains(&e.kind) && v.node == Some(SWITCH);
        let named = match bug {
            Buggify::DequeueLeak => at_switch(&["arrive", "port_free"]) && e.id == SWITCH,
            Buggify::PfcPauseOffByOne | Buggify::EcnMarkBelowKmin => {
                at_switch(&["arrive"]) && e.id == SWITCH
            }
            // The dead link's two ends are the switch and host 0.
            Buggify::FaultDropUnaccounted => {
                e.kind == "arrive" && [0, SWITCH].contains(&e.id) && FLAP.contains(&v.time)
            }
            // The sender's ACK arrival, poke or port release finished it.
            Buggify::FlowReclaimLeak => {
                let flow = v.flow.expect("a leak names its flow");
                let res = planted(bug).sim.run();
                e.id == res.records[flow as usize].src
            }
        };
        assert!(
            named,
            "{bug:?}: the first violation {v} names another event"
        );
    }
}
