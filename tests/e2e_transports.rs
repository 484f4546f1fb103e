//! End-to-end behavior of the non-Swift transports: LEDBAT, HPCC, D2TCP,
//! blast, and the PrioPlus+LEDBAT integration.

use experiments::micro::{goodput_gbps, Micro, MicroEnv};
use experiments::probe::Probed;
use netsim::SwitchConfig;
use simcore::Time;
use transport::{CcSpec, PrioPlusPolicy};

#[test]
fn ledbat_two_flows_share_and_complete() {
    let mut m = Micro::build(&MicroEnv {
        senders: 2,
        end: Time::from_ms(10),
        ..Default::default()
    });
    let cc = CcSpec::Ledbat {
        queuing: Time::from_us(4),
    };
    for s in 1..=2 {
        m.add_flow(s, 12_500_000, Time::ZERO, 0, 0, &cc);
    }
    let res = m.sim.run();
    assert_eq!(res.completion_rate(), 1.0);
    let f0 = res.records[0].fct().unwrap().as_us_f64();
    let f1 = res.records[1].fct().unwrap().as_us_f64();
    // Both share: each takes roughly 2x the solo time (1ms).
    assert!(f0 > 1_500.0 && f1 > 1_500.0);
    assert!(f0.max(f1) < 3_200.0, "underutilized: {}", f0.max(f1));
}

#[test]
fn hpcc_keeps_queue_near_zero_at_high_utilization() {
    let mut m = Micro::build(&MicroEnv {
        senders: 4,
        end: Time::from_ms(10),
        switch: SwitchConfig {
            int_enabled: true,
            ..Default::default()
        },
        ..Default::default()
    });
    m.monitor_bottleneck_queue(Time::from_us(10));
    m.monitor_bottleneck_throughput(Time::from_us(100));
    for s in 1..=4 {
        m.add_flow(s, 50_000_000, Time::ZERO, 0, 0, &CcSpec::Hpcc);
    }
    let series = m.run().series;
    let q = &series[0];
    let tput = &series[1];
    let qmean = q.window_mean(3_000.0, 10_000.0).unwrap();
    let util = tput.window_mean(3_000.0, 10_000.0).unwrap();
    // HPCC's signature: near-eta utilization with a near-empty queue.
    assert!(util > 85.0, "HPCC utilization {util} Gbps");
    assert!(
        qmean < 100_000.0,
        "HPCC queue should stay near zero, got {qmean} bytes"
    );
}

#[test]
fn d2tcp_meets_deadline_alone() {
    let mut m = Micro::build(&MicroEnv {
        senders: 1,
        end: Time::from_ms(5),
        ..Default::default()
    });
    let id = m.add_flow(
        1,
        5_000_000,
        Time::ZERO,
        0,
        0,
        &CcSpec::D2tcp {
            deadline_factor: Some(2.0),
        },
    );
    let res = m.sim.run();
    let fct = res.records[id as usize].fct().unwrap().as_us_f64();
    // Ideal ~412us; deadline 2x = 824us.
    assert!(fct < 824.0, "missed its own deadline alone: {fct}us");
}

#[test]
fn blast_fills_the_link_immediately() {
    let mut m = Micro::build(&MicroEnv {
        senders: 1,
        end: Time::from_ms(3),
        ..Default::default()
    });
    m.add_flow(1, 12_500_000, Time::ZERO, 0, 0, &CcSpec::Blast);
    let res = m.sim.run();
    let fct = res.records[0].fct().unwrap().as_us_f64();
    // Pure line rate: 12500 wire packets of 1048 B = 1048us serialization
    // plus the one-way path; nothing slower than that.
    assert!(fct < 1_060.0, "blast too slow: {fct}");
    assert!(fct > 1_048.0, "impossibly fast: {fct}");
}

#[test]
fn prioplus_ledbat_strict_priority() {
    let mut m = Micro::build(&MicroEnv {
        senders: 2,
        end: Time::from_ms(6),
        ..Default::default()
    });
    let cc = CcSpec::PrioPlusLedbat {
        policy: PrioPlusPolicy::paper_default(2),
    };
    let lo = m.add_flow(1, 50_000_000, Time::ZERO, 0, 0, &cc);
    let hi = m.add_flow(2, 25_000_000, Time::from_ms(1), 0, 1, &cc);
    let Probed { res, goodput, .. } = m.run();
    let hi_fct = res.records[hi as usize].fct().expect("hi done").as_us_f64();
    assert!(
        hi_fct < 2_800.0,
        "PrioPlus+LEDBAT high prio too slow: {hi_fct}"
    );
    let tput = goodput[lo as usize].series_gbps();
    let during = tput.window_mean(1_300.0, 2_500.0).unwrap_or(0.0);
    assert!(during < 10.0, "LEDBAT low prio kept {during} Gbps");
    let after_end = res.records[hi as usize].finish.unwrap().as_us_f64();
    let after = tput
        .window_mean(after_end + 500.0, after_end + 1_500.0)
        .unwrap_or(0.0);
    assert!(after > 60.0, "LEDBAT low prio reclaimed only {after} Gbps");
}

#[test]
fn weighted_swift_shares_by_weight() {
    // Two flows, weights 1 and 3, one queue: shares ~1:3 (§7's weighted
    // virtual priority building block).
    let mut m = Micro::build(&MicroEnv {
        senders: 2,
        end: Time::from_ms(10),
        ..Default::default()
    });
    let lo = m.add_flow(
        1,
        100_000_000,
        Time::ZERO,
        0,
        0,
        &CcSpec::SwiftWeighted {
            queuing: Time::from_us(4),
            weight: 1.0,
        },
    );
    let hi = m.add_flow(
        2,
        100_000_000,
        Time::ZERO,
        0,
        0,
        &CcSpec::SwiftWeighted {
            queuing: Time::from_us(4),
            weight: 3.0,
        },
    );
    let goodput = m.run().goodput;
    let g = |id: u32| goodput_gbps(&goodput, &[id], 4_000.0, 10_000.0);
    let (glo, ghi) = (g(lo), g(hi));
    let ratio = ghi / glo.max(1e-9);
    assert!(
        (1.8..5.0).contains(&ratio),
        "weighted share ratio {ratio} (hi {ghi}, lo {glo}) should be ~3"
    );
    assert!(
        ghi + glo > 85.0,
        "weighted pair underutilizes: {}",
        ghi + glo
    );
}

#[test]
fn weighted_priority_inversion_with_many_light_flows() {
    // The §7 caveat: 8 unit-weight flows collectively out-compete one
    // weight-4 flow (4/12 expected share), breaking priority semantics.
    let mut m = Micro::build(&MicroEnv {
        senders: 9,
        end: Time::from_ms(10),
        ..Default::default()
    });
    let heavy = m.add_flow(
        1,
        100_000_000,
        Time::ZERO,
        0,
        0,
        &CcSpec::SwiftWeighted {
            queuing: Time::from_us(4),
            weight: 4.0,
        },
    );
    for s in 2..=9 {
        m.add_flow(
            s,
            100_000_000,
            Time::ZERO,
            0,
            0,
            &CcSpec::SwiftWeighted {
                queuing: Time::from_us(4),
                weight: 1.0,
            },
        );
    }
    let gh = goodput_gbps(&m.run().goodput, &[heavy], 4_000.0, 10_000.0);
    // Expected share 4/12 = 33 Gbps: the heavy flow does NOT get strict
    // priority (inversion), yet keeps more than a fair 1/9 share.
    assert!(gh < 60.0, "no inversion observed: heavy got {gh} Gbps");
    assert!(gh > 15.0, "heavy flow under fair share: {gh} Gbps");
}

#[test]
fn mixed_transports_coexist_on_one_queue() {
    // Sanity: heterogeneous CCs in one queue run to completion (the Meta
    // motivation from §2.2 about CC coexistence).
    let mut m = Micro::build(&MicroEnv {
        senders: 3,
        end: Time::from_ms(20),
        switch: SwitchConfig {
            int_enabled: true,
            ..Default::default()
        },
        ..Default::default()
    });
    m.add_flow(
        1,
        5_000_000,
        Time::ZERO,
        0,
        0,
        &CcSpec::Swift {
            queuing: Time::from_us(4),
            scaling: false,
        },
    );
    m.add_flow(
        2,
        5_000_000,
        Time::ZERO,
        0,
        0,
        &CcSpec::Ledbat {
            queuing: Time::from_us(4),
        },
    );
    m.add_flow(3, 5_000_000, Time::ZERO, 0, 0, &CcSpec::Hpcc);
    let res = m.sim.run();
    assert_eq!(res.completion_rate(), 1.0);
}
