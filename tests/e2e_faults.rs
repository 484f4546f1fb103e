//! End-to-end fault-regime matrix: link flaps, degradation epochs, and
//! PFC pause storms under the invariant audit.
//!
//! Four claims are established here:
//!
//! 1. **Faults are deterministic**: every fault regime produces
//!    bit-identical results — record for record, counter for counter —
//!    across repeated runs. Fault transitions are ordinary scheduler
//!    events, so nothing about a failure depends on wall clock.
//! 2. **The audit stays clean under failure**: packet conservation,
//!    buffer accounting and the counter identity hold with the deep scan
//!    on every event while links flap, degrade and storm. Accounted
//!    fault loss (`fault_link_drops`) joins the conservation ledger
//!    rather than escaping it, and transports recover the lost data via
//!    retransmission.
//! 3. **The deadlock monitor detects**: a constructed circular buffer
//!    dependency — pause storms pinning every clockwise egress of an
//!    odd ring carrying two-hop flows — is flagged as `PfcDeadlock`,
//!    while the same storm on an acyclic subset of ports stays silent.
//! 4. **The accounting is load-bearing**: the `FaultDropUnaccounted`
//!    buggify (fault drops counted but hidden from the audit) produces a
//!    `CounterMismatch`, pinning the false-negative rate at zero for the
//!    fault we can inject.
//!
//! A long-chain HPCC scenario additionally pins the INT-path spill
//! behavior (> 8 hops) at system level, with a mid-chain flap on top.

use experiments::micro::{Micro, MicroEnv};
use netsim::{
    AuditConfig, Buggify, FaultSchedule, FlowSpec, Sim, SimConfig, SimResult, SwitchConfig,
    Topology, ViolationKind,
};
use simcore::{Rate, Time};
use transport::{CcSpec, PrioPlusPolicy};

/// Deep scan on every event, panicking at the first violation so a
/// failure names the exact offending event.
fn strict_audit() -> AuditConfig {
    AuditConfig {
        panic_on_violation: true,
        deep_every: 1,
        ..AuditConfig::default()
    }
}

/// Deep scan on every event, collecting violations for inspection. Used
/// by the detector tests, which must observe violations rather than die
/// on them — and which therefore also survive `PRIOPLUS_AUDIT_PANIC=1`
/// CI runs (the explicit config replaces the env-derived one).
fn detect_audit() -> AuditConfig {
    AuditConfig {
        panic_on_violation: false,
        deep_every: 1,
        ..AuditConfig::default()
    }
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

/// Bit-exact equality of two runs: every flow-record field and every
/// counter, fault counters included. All fields are integer-backed
/// (`Time` is picoseconds), so `assert_eq!` is exact.
fn assert_bit_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.records.len(), b.records.len(), "{what}: record count");
    for (i, (x, y)) in a.records.iter().zip(b.records.iter()).enumerate() {
        assert_eq!(x.flow, y.flow, "{what}: record {i} flow id");
        assert_eq!(x.src, y.src, "{what}: record {i} src");
        assert_eq!(x.dst, y.dst, "{what}: record {i} dst");
        assert_eq!(x.size, y.size, "{what}: record {i} size");
        assert_eq!(x.start, y.start, "{what}: record {i} start");
        assert_eq!(x.finish, y.finish, "{what}: record {i} finish");
        assert_eq!(x.delivered, y.delivered, "{what}: record {i} delivered");
        assert_eq!(
            x.retransmits, y.retransmits,
            "{what}: record {i} retransmits"
        );
        assert_eq!(x.base_rtt, y.base_rtt, "{what}: record {i} base_rtt");
    }
    let (ca, cb) = (&a.counters, &b.counters);
    assert_eq!(ca.events, cb.events, "{what}: events");
    assert_eq!(ca.data_delivered, cb.data_delivered, "{what}: delivered");
    assert_eq!(ca.pfc_pauses, cb.pfc_pauses, "{what}: pfc_pauses");
    assert_eq!(ca.pfc_resumes, cb.pfc_resumes, "{what}: pfc_resumes");
    assert_eq!(ca.drops, cb.drops, "{what}: drops");
    assert_eq!(ca.ecn_marks, cb.ecn_marks, "{what}: ecn_marks");
    assert_eq!(
        ca.max_buffer_used, cb.max_buffer_used,
        "{what}: max_buffer_used"
    );
    assert_eq!(ca.fault_events, cb.fault_events, "{what}: fault_events");
    assert_eq!(
        ca.fault_link_drops, cb.fault_link_drops,
        "{what}: fault_link_drops"
    );
    assert_eq!(
        ca.fault_ctrl_drops, cb.fault_ctrl_drops,
        "{what}: fault_ctrl_drops"
    );
}

/// A 4-sender incast with a fault schedule installed. Hosts are
/// `0..=4` (0 is the receiver), the switch is node 5, and switch port
/// `i` faces host `i`.
fn run_incast(
    faults: FaultSchedule,
    cc: &CcSpec,
    audit: AuditConfig,
    buggify: Option<Buggify>,
) -> SimResult {
    let mut m = Micro::build(&MicroEnv {
        senders: 4,
        end: Time::from_ms(10),
        trace: false,
        faults: Some(faults),
        switch: SwitchConfig {
            buggify,
            ..SwitchConfig::default()
        },
        ..Default::default()
    });
    m.sim.enable_audit_with(audit);
    for s in 1..=4 {
        m.add_flow(s, 1_000_000, Time::ZERO, 0, 0, cc);
    }
    m.sim.run()
}

fn swift() -> CcSpec {
    CcSpec::Swift {
        queuing: Time::from_us(4),
        scaling: false,
    }
}

/// A link flap on the bottleneck (switch → receiver) link: the port is
/// busy throughout the incast, so the down transition always catches
/// packets in flight — dropped with accounted loss and recovered by
/// retransmission once the link returns.
fn flap_schedule() -> FaultSchedule {
    let mut f = FaultSchedule::new();
    f.link_flap(5, 0, Time::from_us(40), Time::from_us(160));
    f
}

#[test]
fn flap_regime_is_bit_identical_audit_clean_and_recovers() {
    let reference = run_incast(flap_schedule(), &swift(), strict_audit(), None);
    assert_eq!(reference.counters.fault_events, 2, "down + up applied");
    assert!(
        reference.counters.fault_link_drops > 0,
        "flap must catch packets in flight"
    );
    assert_eq!(
        reference.completion_rate(),
        1.0,
        "retransmission must recover the fault loss"
    );
    let retransmits: u64 = reference.records.iter().map(|r| r.retransmits).sum();
    assert!(
        retransmits > 0,
        "recovery must come from actual retransmits"
    );
    let got = run_incast(flap_schedule(), &swift(), strict_audit(), None);
    assert_bit_identical(&reference, &got, "flap rerun");
}

#[test]
fn degrade_regime_is_bit_identical_and_slows_the_bottleneck() {
    // Fault-free baseline vs a degraded bottleneck (quarter rate plus
    // 2 µs extra propagation for 300 µs): same audit-clean completion,
    // strictly later finishes.
    let mut m = Micro::build(&MicroEnv {
        senders: 4,
        end: Time::from_ms(10),
        trace: false,
        ..Default::default()
    });
    m.sim.enable_audit_with(strict_audit());
    for s in 1..=4 {
        m.add_flow(s, 1_000_000, Time::ZERO, 0, 0, &swift());
    }
    let baseline = m.sim.run();

    let mut degrade = FaultSchedule::new();
    degrade.degrade(
        5,
        0,
        Time::from_us(50),
        Time::from_us(350),
        0.25,
        Time::from_us(2),
    );
    let reference = run_incast(degrade.clone(), &swift(), strict_audit(), None);
    assert_eq!(reference.completion_rate(), 1.0, "degradation never drops");
    assert_eq!(reference.counters.fault_link_drops, 0);
    let last = |r: &SimResult| r.records.iter().filter_map(|x| x.finish).max().unwrap();
    assert!(
        last(&reference) > last(&baseline),
        "quarter-rate epoch must delay completion ({} vs {})",
        last(&reference),
        last(&baseline)
    );
    let got = run_incast(degrade, &swift(), strict_audit(), None);
    assert_bit_identical(&reference, &got, "degrade rerun");
}

#[test]
fn storm_regime_is_bit_identical_and_audit_clean() {
    // Pin pause on the bottleneck egress for 200 µs. A single paused
    // port cannot form a wait-for cycle, so the deadlock monitor must
    // stay silent; flows finish once the storm lifts.
    let cc = CcSpec::PrioPlusSwift {
        policy: PrioPlusPolicy::paper_default(4),
    };
    let mut storm = FaultSchedule::new();
    storm.pause_storm(5, 0, 0, Time::from_us(50), Time::from_us(250));
    let reference = run_incast(storm.clone(), &cc, strict_audit(), None);
    assert_eq!(reference.completion_rate(), 1.0, "storm release must drain");
    assert_eq!(reference.counters.fault_events, 2);
    let got = run_incast(storm, &cc, strict_audit(), None);
    assert_bit_identical(&reference, &got, "storm rerun");
}

#[test]
fn random_flap_fleet_is_audit_clean_and_repeatable() {
    // Seed-driven flap storms over every access link, receiver side
    // included (so ACK/control loss is exercised too). Completion is not
    // guaranteed under arbitrary flapping; conservation is.
    let links: Vec<(u32, u16)> = (0..=4).map(|p| (5, p as u16)).collect();
    for seed in [3u64, 17, 0xB0B] {
        let sched = FaultSchedule::random_flaps(
            &links,
            seed,
            Time::from_ms(2),
            Time::from_us(300),
            Time::from_us(40),
        );
        assert!(!sched.is_empty(), "seed {seed}: schedule must flap");
        let a = run_incast(sched.clone(), &swift(), strict_audit(), None);
        assert!(a.counters.fault_events > 0, "seed {seed}: no fault applied");
        let b = run_incast(sched, &swift(), strict_audit(), None);
        assert_bit_identical(&a, &b, &format!("random flaps seed {seed}"));
    }
}

#[test]
fn fault_drop_unaccounted_buggify_is_caught_by_counter_identity() {
    // The buggify counts a fault drop in `SimCounters` but hides it from
    // the audit ledger; the counter identity (`drops + fault_link_drops
    // == audited dropped packets`) must flag the divergence.
    let res = run_incast(
        flap_schedule(),
        &swift(),
        detect_audit(),
        Some(Buggify::FaultDropUnaccounted),
    );
    assert!(
        res.counters.fault_link_drops > 0,
        "scenario must actually fault-drop"
    );
    assert!(
        kinds(&res).contains(&ViolationKind::CounterMismatch),
        "unaccounted fault drop must break the counter identity: {:?}",
        res.audit.as_ref().unwrap().violations
    );
}

/// Build the 5-switch ring carrying five clockwise two-hop flows (host
/// `i` → host `(i+2) % 5`). Every ring link carries exactly two flows
/// (2× oversubscription), so transit queues hold packets throughout.
/// Hosts are nodes `0..5`, switch `5 + i` serves host `i` on its port 0.
fn ring_sim(faults: FaultSchedule) -> Sim {
    let topo = Topology::ring(5, Rate::from_gbps(100), Time::from_us(3));
    let cfg = SimConfig {
        num_prios: 1,
        end_time: Time::from_ms(2),
        seed: 7,
        trace_flows: false,
        faults: Some(faults),
        ..Default::default()
    };
    let mut sim = Sim::new(&topo, cfg, SwitchConfig::default());
    sim.enable_audit_with(detect_audit());
    let cc = CcSpec::D2tcp {
        deadline_factor: None,
    };
    for i in 0..5u32 {
        let spec = FlowSpec::new(i, (i + 2) % 5, 8_000_000, Time::ZERO);
        sim.add_flow(spec, |p| cc.make(p, Time::ZERO));
    }
    sim
}

/// Switch `5 + i`'s egress port toward its clockwise neighbor. Ports are
/// numbered in link insertion order — host link first, then the ring
/// links in `connect(sw[i], sw[i+1])` order — so switch 0's clockwise
/// port is 1 (its counter-clockwise link is added last), while every
/// other switch receives its counter-clockwise link (as `sw[i+1]`)
/// before its clockwise one.
fn cw_port(i: u32) -> u16 {
    if i == 0 {
        1
    } else {
        2
    }
}

#[test]
fn constructed_pause_cycle_is_flagged_as_deadlock() {
    // Storm every clockwise inter-switch egress: each paused egress
    // holds transit packets that entered over the previous ring link,
    // whose resume is in turn blocked — the classic circular buffer
    // dependency. The monitor must flag it exactly as `PfcDeadlock`.
    let mut storm = FaultSchedule::new();
    for i in 0..5u32 {
        storm.pause_storm(5 + i, cw_port(i), 0, Time::from_us(100), Time::from_ms(1));
    }
    let res = ring_sim(storm).run();
    let report = res.audit.as_ref().expect("audit enabled");
    assert!(
        kinds(&res).contains(&ViolationKind::PfcDeadlock),
        "full-ring storm must be flagged: {:?}",
        report.violations
    );
    let v = report
        .violations
        .iter()
        .find(|v| v.kind == ViolationKind::PfcDeadlock)
        .unwrap();
    assert!(
        v.detail.contains("cycle"),
        "deadlock report names the cycle: {}",
        v.detail
    );
}

#[test]
fn acyclic_pause_pattern_is_not_flagged() {
    // The same storm on only three of five clockwise egresses: the
    // wait-for chain 5→6→7 ends at an unpaused port, so there is no
    // cycle and the monitor must stay silent.
    let mut storm = FaultSchedule::new();
    for i in 0..3u32 {
        storm.pause_storm(5 + i, cw_port(i), 0, Time::from_us(100), Time::from_ms(1));
    }
    let res = ring_sim(storm).run();
    assert!(
        !kinds(&res).contains(&ViolationKind::PfcDeadlock),
        "acyclic pause pattern misflagged: {:?}",
        res.audit.as_ref().unwrap().violations
    );
}

#[test]
fn deep_chain_int_path_spills_and_survives_a_mid_chain_flap() {
    // Twelve switches between the two hosts: HPCC's INT path exceeds the
    // 8-hop inline capacity on every data packet, exercising the spill
    // representation end-to-end. A mid-chain flap drops in-flight
    // packets (and INT-carrying ACKs); the flow must still complete with
    // a clean audit. Hosts are nodes 0 and 1; switches are 2..14 in
    // chain order, and each switch's port toward the next hop is its
    // second-added port.
    let topo = Topology::chain(12, Rate::from_gbps(100), Time::from_us(1));
    let mut flap = FaultSchedule::new();
    flap.link_flap(7, 1, Time::from_us(80), Time::from_us(200));
    let cfg = SimConfig {
        num_prios: 1,
        end_time: Time::from_ms(20),
        seed: 11,
        trace_flows: false,
        faults: Some(flap),
        ..Default::default()
    };
    let switch = SwitchConfig {
        int_enabled: true,
        ..SwitchConfig::default()
    };
    let mut sim = Sim::new(&topo, cfg, switch);
    sim.enable_audit_with(strict_audit());
    let spec = FlowSpec::new(0, 1, 2_000_000, Time::ZERO);
    sim.add_flow(spec, |p| CcSpec::Hpcc.make(p, Time::ZERO));
    let res = sim.run();
    assert_eq!(
        res.completion_rate(),
        1.0,
        "12-hop HPCC flow must survive the flap"
    );
    assert!(
        res.counters.fault_link_drops + res.counters.fault_ctrl_drops > 0,
        "the flap must catch traffic mid-chain"
    );
}

#[test]
fn fault_runs_are_deterministic_across_repeats() {
    // The most state-heavy regime (random flaps over every link) run
    // twice with identical inputs must match bit for bit.
    let links: Vec<(u32, u16)> = (0..=4).map(|p| (5, p as u16)).collect();
    let sched = FaultSchedule::random_flaps(
        &links,
        21,
        Time::from_ms(2),
        Time::from_us(250),
        Time::from_us(50),
    );
    let a = run_incast(sched.clone(), &swift(), strict_audit(), None);
    let b = run_incast(sched, &swift(), strict_audit(), None);
    assert_bit_identical(&a, &b, "repeat run");
}
