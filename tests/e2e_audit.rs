//! End-to-end runs with the invariant-audit layer enabled.
//!
//! Two claims are established here. First, the audit is *clean* on the
//! seed simulator: full runs across the congestion-control matrix report
//! zero violations, so every audit invariant is a real property of the
//! code, not an aspiration. Second, the audit *detects*: each `Buggify`
//! fault injection produces at least one violation of the expected kind.
//! Together these pin the audit's false-positive and false-negative rate
//! at zero for the faults we can inject. The audit's tallies also carry
//! across a pump stopped by `run_until` and resumed: it stays clean on
//! both halves of a split run, which equals the straight run.

use experiments::micro::{Micro, MicroEnv};
use netsim::{Buggify, SimResult, SwitchConfig, ViolationKind};
use simcore::Time;
use transport::{CcSpec, PrioPlusPolicy};

/// Run a `senders`-way incast with the audit layer on and return the
/// result (including the audit report).
fn run_audited(cc: &CcSpec, switch: SwitchConfig, senders: usize, size: u64) -> SimResult {
    let mut m = Micro::build(&MicroEnv {
        senders,
        end: Time::from_ms(10),
        trace: false,
        switch,
        ..Default::default()
    });
    m.sim.enable_audit();
    for s in 1..=senders {
        m.add_flow(s, size, Time::ZERO, 0, 0, cc);
    }
    m.sim.run()
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
        trace: false,
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
            trace: false,
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

#[test]
fn injected_dequeue_leak_is_caught() {
    let switch = SwitchConfig {
        buggify: Some(Buggify::DequeueLeak),
        ..Default::default()
    };
    let cc = CcSpec::Swift {
        queuing: Time::from_us(4),
        scaling: false,
    };
    let res = run_audited(&cc, switch, 4, 500_000);
    let ks = kinds(&res);
    assert!(
        ks.contains(&ViolationKind::BufferAccounting),
        "leak not caught: {ks:?}"
    );
}

#[test]
fn injected_pfc_off_by_one_is_caught() {
    // Small shared buffer + blast senders force the ingress counters over
    // the pause threshold; the buggified switch pauses one packet late and
    // the audit must see the unpaused over-threshold state.
    let switch = SwitchConfig {
        buffer_bytes: 1_000_000,
        buggify: Some(Buggify::PfcPauseOffByOne),
        ..Default::default()
    };
    let res = run_audited(&CcSpec::Blast, switch, 4, 500_000);
    let ks = kinds(&res);
    assert!(
        ks.contains(&ViolationKind::PfcXoffMissed),
        "off-by-one not caught: {ks:?}"
    );
}

#[test]
fn injected_ecn_below_kmin_is_caught() {
    let switch = SwitchConfig {
        buggify: Some(Buggify::EcnMarkBelowKmin),
        ..Default::default()
    };
    let cc = CcSpec::D2tcp {
        deadline_factor: None,
    };
    let res = run_audited(&cc, switch, 2, 200_000);
    let ks = kinds(&res);
    assert!(
        ks.contains(&ViolationKind::EcnBounds),
        "below-kmin marks not caught: {ks:?}"
    );
}

/// The audit sees events that wait in the queue's FIFO lanes. On
/// `three_tier_wan` — host, fabric and WAN links: the most link classes of
/// any topology here, twelve declared delays — nearly every packet in
/// flight is referenced from a lane and not from the scheduler backend, so
/// an arena-accounting pass that visited only the backend would report each
/// of them leaked, and a lane whose bookkeeping slipped would fail the
/// queue's own check; the deep scan runs after every event. Declarations
/// are made in a fixed order (by link count, then topology order), so two
/// runs are the same run.
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
        sim.enable_audit_with(AuditConfig {
            deep_every: 1,
            ..Default::default()
        });
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
        sim.run()
    };
    let res = run();
    let report = res.audit.as_ref().expect("audit enabled");
    assert_eq!(report.total_violations, 0, "{:?}", report.violations);
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
        trace: false,
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
