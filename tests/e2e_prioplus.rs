//! End-to-end PrioPlus behavior: the paper's three objectives on a live
//! bottleneck — O1 strict multi-priority, O2 work conservation, and
//! fluctuation management.

use experiments::micro::{goodput_gbps, Micro, MicroEnv};
use experiments::probe::Probed;
use netsim::NoiseModel;
use simcore::Time;
use transport::{CcSpec, PrioPlusPolicy};

fn pp(classes: u8) -> CcSpec {
    CcSpec::PrioPlusSwift {
        policy: PrioPlusPolicy::paper_default(classes),
    }
}

/// O1: when a high-priority flow is active, a low-priority flow must yield
/// (nearly) all bandwidth; O2: after the high-priority flow finishes, the
/// low-priority flow must ramp back up quickly.
#[test]
fn strict_priority_and_reclaim() {
    let mut m = Micro::build(&MicroEnv {
        senders: 2,
        end: Time::from_ms(6),
        noise: NoiseModel::testbed(),
        ..Default::default()
    });
    let cc = pp(2);
    // Low-priority long flow starts first; high-priority flow runs
    // 1ms..~3ms (25 MB at 100G ~ 2ms alone).
    let lo = m.add_flow(1, 50_000_000, Time::ZERO, 0, 0, &cc);
    let hi = m.add_flow(2, 25_000_000, Time::from_ms(1), 0, 1, &cc);
    let Probed { res, goodput, .. } = m.run();

    let hi_rec = &res.records[hi as usize];
    let hi_fct = hi_rec.fct().expect("high prio finishes").as_us_f64();
    // Alone it would take ~2000us + start-up; strict priority means it
    // should be close to that despite the low-priority flow.
    assert!(
        hi_fct < 2_600.0,
        "high-priority flow was not prioritized: {hi_fct}us"
    );

    // While the high-priority flow runs (1.3ms..2.5ms), the low-priority
    // goodput must be near zero.
    let lo_tput = goodput[lo as usize].series_gbps();
    let during = lo_tput.window_mean(1_300.0, 2_500.0).unwrap_or(0.0);
    assert!(
        during < 8.0,
        "low-priority flow kept {during} Gbps during contention"
    );
    // Before contention it should have held the full link.
    let before = lo_tput.window_mean(300.0, 900.0).unwrap();
    assert!(
        before > 80.0,
        "low prio only {before} Gbps before contention"
    );
    // After the high-priority flow ends it must reclaim the bandwidth
    // within ~1ms (O2).
    let hi_end_us = hi_rec.finish.unwrap().as_us_f64();
    let after = lo_tput
        .window_mean(hi_end_us + 500.0, hi_end_us + 1_500.0)
        .unwrap_or(0.0);
    assert!(after > 70.0, "low prio reclaimed only {after} Gbps");
}

/// O2 alone: a single PrioPlus flow on an idle link must reach (near) full
/// utilization and finish close to ideal despite linear start.
#[test]
fn work_conservation_solo() {
    let mut m = Micro::build(&MicroEnv {
        senders: 1,
        end: Time::from_ms(8),
        ..Default::default()
    });
    // Highest priority of 8: no probe, W_LS = 1 BDP.
    m.add_flow(1, 12_500_000, Time::ZERO, 0, 7, &pp(8));
    let res = m.sim.run();
    let fct = res.records[0].fct().expect("finishes").as_us_f64();
    // Ideal ~1012us; allow start-up slack.
    assert!(fct < 1_300.0, "solo PrioPlus flow too slow: {fct}us");
}

/// Probing keeps signal frequency with minimal bandwidth (§4.2.1): while
/// suspended, a low-priority flow sends only probes and those probes are a
/// negligible share of the link.
#[test]
fn suspended_flow_sends_probes_not_data() {
    let mut m = Micro::build(&MicroEnv {
        senders: 2,
        end: Time::from_ms(4),
        ..Default::default()
    });
    let cc = pp(2);
    let lo = m.add_flow(1, 50_000_000, Time::ZERO, 0, 0, &cc);
    let _hi = m.add_flow(2, 50_000_000, Time::from_ms(1), 0, 1, &cc);
    let Probed { res, goodput, .. } = m.run();
    assert!(res.counters.probes > 3, "no probing happened");
    // The low-priority flow must deliver almost nothing during contention.
    let during = goodput_gbps(&goodput, &[lo], 1_500.0, 3_800.0);
    assert!(during < 5.0, "suspended flow delivered {during} Gbps");
}

/// Flow cardinality estimation (§4.3.1): a large same-priority incast must
/// keep the delay near D_target instead of oscillating between empty and
/// over-limit (Fig 10b).
#[test]
fn incast_delay_stays_near_target() {
    let senders = 150;
    let mut m = Micro::build(&MicroEnv {
        senders,
        end: Time::from_ms(8),
        noise: NoiseModel::testbed(),
        ..Default::default()
    });
    m.monitor_bottleneck_queue(Time::from_us(10));
    // All flows at priority 4 of 8: D_target = 12+20 = 32us, i.e. 250 KB of
    // queue at 100G.
    let cc = pp(8);
    for s in 1..=senders {
        m.add_flow(s, 3_000_000, Time::ZERO, 0, 4, &cc);
    }
    let Probed { res, series, .. } = m.run();
    let q = &series[0];
    // After convergence, mean queue should be near 250 KB (20us above base).
    let mean = q.window_mean(3_000.0, 8_000.0).unwrap();
    assert!(
        (100_000.0..400_000.0).contains(&mean),
        "incast queue mean {mean} bytes, want ~250KB"
    );
    // Bandwidth must stay utilized (no synchronized collapse).
    let delivered: u64 = res.records.iter().map(|r| r.delivered).sum();
    let expected = 100e9 / 8.0 * 0.005; // ≥ 5ms of useful goodput in 8ms
    assert!(
        delivered as f64 > expected,
        "incast underutilized: {delivered} bytes"
    );
}

/// Eight adjacent priorities coexisting: every flow finishes eventually and
/// higher priorities finish no later than lower ones on average (Fig 10a
/// shape).
#[test]
fn eight_priorities_order_fcts() {
    let mut m = Micro::build(&MicroEnv {
        senders: 8,
        end: Time::from_ms(30),
        noise: NoiseModel::testbed(),
        ..Default::default()
    });
    let cc = pp(8);
    // All start together, same size: strict priority should serialize them
    // roughly by priority.
    for s in 1..=8 {
        let prio = (s - 1) as u8;
        m.add_flow(s, 12_500_000, Time::ZERO, 0, prio, &cc);
    }
    let res = m.sim.run();
    let fct = |i: usize| -> f64 { res.records[i].fct().map(|t| t.as_us_f64()).unwrap_or(1e9) };
    // Highest priority (sender 8, prio 7) must be near solo speed.
    assert!(fct(7) < 2_000.0, "top priority too slow: {}", fct(7));
    // Lowest priority must be the last (or nearly last) to finish.
    let lowest = fct(0);
    let max_other = (1..8).map(fct).fold(0.0, f64::max);
    assert!(
        lowest >= max_other * 0.8,
        "lowest priority should finish around last: {lowest} vs {max_other}"
    );
    assert_eq!(res.completion_rate(), 1.0, "all flows must complete");
}
