//! End-to-end sanity of the full stack: simulator + Swift transport on the
//! micro-benchmark bottleneck.

use experiments::micro::{Micro, MicroEnv};
use netsim::NoiseModel;
use simcore::Time;
use transport::CcSpec;

fn swift() -> CcSpec {
    CcSpec::Swift {
        queuing: Time::from_us(4),
        scaling: false,
    }
}

#[test]
fn single_flow_completes_near_ideal() {
    let mut m = Micro::build(&MicroEnv {
        senders: 1,
        end: Time::from_ms(5),
        ..Default::default()
    });
    // 1.5 MB at 100 Gbps: serialization 120us + 12us RTT => ideal ~132us.
    m.add_flow(1, 1_500_000, Time::ZERO, 0, 0, &swift());
    let res = m.sim.run();
    let r = &res.records[0];
    let fct = r.fct().expect("flow must finish").as_us_f64();
    assert!(fct >= 130.0, "faster than ideal: {fct}us");
    assert!(fct < 200.0, "too slow: {fct}us (slowdown > 1.5)");
    assert_eq!(r.delivered, 1_500_000);
    assert_eq!(res.counters.drops, 0);
}

#[test]
fn two_swift_flows_share_fairly() {
    let mut m = Micro::build(&MicroEnv {
        senders: 2,
        end: Time::from_ms(10),
        ..Default::default()
    });
    // Two long flows from different senders to the same receiver.
    let size = 12_500_000; // 1ms each alone at 100G
    m.add_flow(1, size, Time::ZERO, 0, 0, &swift());
    m.add_flow(2, size, Time::ZERO, 0, 0, &swift());
    let res = m.sim.run();
    let f0 = res.records[0].fct().expect("finish").as_us_f64();
    let f1 = res.records[1].fct().expect("finish").as_us_f64();
    // Sharing means both take ~2x solo time; fairness means similar FCTs.
    assert!(f0 > 1500.0 && f1 > 1500.0, "{f0} {f1}");
    let ratio = f0.max(f1) / f0.min(f1);
    assert!(ratio < 1.3, "unfair split: {f0} vs {f1}");
    // Work conservation: total time ~ 2ms, not much more.
    assert!(f0.max(f1) < 2_600.0, "underutilized: {}", f0.max(f1));
}

#[test]
fn many_flows_all_complete() {
    let mut m = Micro::build(&MicroEnv {
        senders: 30,
        end: Time::from_ms(20),
        ..Default::default()
    });
    for s in 1..=30 {
        m.add_flow(s, 200_000, Time::ZERO, 0, 0, &swift());
    }
    let res = m.sim.run();
    assert_eq!(res.completion_rate(), 1.0);
    let total: u64 = res.records.iter().map(|r| r.delivered).sum();
    assert_eq!(total, 30 * 200_000);
}

#[test]
fn simulation_is_deterministic() {
    let run = || {
        let mut m = Micro::build(&MicroEnv {
            senders: 5,
            end: Time::from_ms(5),
            noise: NoiseModel::testbed(),
            seed: 99,
            ..Default::default()
        });
        for s in 1..=5 {
            m.add_flow(s, 500_000, Time::from_us(s as u64 * 10), 0, 0, &swift());
        }
        let res = m.sim.run();
        res.records
            .iter()
            .map(|r| (r.finish.map(|t| t.as_ps()), r.delivered))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn swift_keeps_queue_near_target() {
    let mut m = Micro::build(&MicroEnv {
        senders: 4,
        end: Time::from_ms(8),
        ..Default::default()
    });
    m.monitor_bottleneck_queue(Time::from_us(10));
    for s in 1..=4 {
        m.add_flow(s, 50_000_000, Time::ZERO, 0, 0, &swift());
    }
    let series = m.run().series;
    // After convergence (2ms), the queue should hover near the 4us target
    // (50 KB at 100G) and stay well below 10x that.
    let mean = series[0].window_mean(2_000.0, 8_000.0).unwrap();
    assert!(mean > 5_000.0, "queue too empty: {mean} bytes");
    assert!(mean < 500_000.0, "queue blew up: {mean} bytes");
}

#[test]
fn utilization_is_high_under_long_flows() {
    let mut m = Micro::build(&MicroEnv {
        senders: 4,
        end: Time::from_ms(8),
        ..Default::default()
    });
    m.monitor_bottleneck_throughput(Time::from_us(100));
    for s in 1..=4 {
        m.add_flow(s, 50_000_000, Time::ZERO, 0, 0, &swift());
    }
    let series = m.run().series;
    let mean = series[0].window_mean(2_000.0, 8_000.0).unwrap();
    assert!(mean > 90.0, "bottleneck throughput only {mean} Gbps");
}
