//! Digest completeness: buggify-style tampers ([`StateTamper`]) mutate one
//! class of simulator state at a time — counters, RNG streams, port state,
//! the event queue, a live flow's reassembly point, streaming sketches —
//! and [`netsim::Sim::state_digest`] must notice every one; classes absent
//! from a run must report `false` and leave the digest alone. Each tamper
//! lands on its own copy of the run, rebuilt and pumped to the same
//! instant, so every copy starts from the same digest.

use experiments::golden::summarize;
use experiments::micro::{Micro, MicroEnv};
use netsim::{FlowSpec, NoiseModel, Sim, SimConfig, StateTamper, SwitchConfig, Topology};
use simcore::{Rate, Time};
use transport::CcSpec;

fn swift() -> CcSpec {
    CcSpec::Swift {
        queuing: Time::from_us(4),
        scaling: false,
    }
}

/// Staggered 6-sender Swift incast over one bottleneck with testbed noise:
/// queues, PFC and flows in flight at the tamper point.
fn incast() -> Micro {
    let mut m = Micro::build(&MicroEnv {
        senders: 6,
        end: Time::from_ms(3),
        noise: NoiseModel::testbed(),
        seed: 7,
        ..Default::default()
    });
    for s in 1..=6usize {
        m.add_flow(
            s,
            120_000 + 40_000 * s as u64,
            Time::from_us(20 * s as u64),
            0,
            (s % 2) as u8,
            &swift(),
        );
    }
    m
}

/// Streaming-stats run for the Sketch tamper class: `MicroEnv` has no
/// streaming knob, so build the Sim directly.
fn streaming_sim() -> Sim {
    let topo = Topology::single_switch(4, Rate::from_gbps(100), Time::from_us(3));
    let cfg = SimConfig {
        end_time: Time::from_ms(2),
        seed: 11,
        streaming_stats: true,
        ..Default::default()
    };
    let mut sim = Sim::new(&topo, cfg, SwitchConfig::default());
    for s in 1..=4u32 {
        let spec = FlowSpec::new(s, 0, 200_000, Time::from_us(10 * s as u64));
        let start = spec.start;
        sim.add_flow(spec, |p| swift().make(p, start));
    }
    sim
}

/// Build a run with `build`, pump it to `at`, apply `tamper`: whether the
/// tamper landed, and the digests before and after it.
fn tampered(build: impl Fn() -> Sim, at: Time, tamper: StateTamper) -> (bool, u64, u64) {
    let mut sim = build();
    sim.run_until(at);
    let base = sim.state_digest();
    let landed = sim.snap_mutate(tamper);
    (landed, base, sim.state_digest())
}

/// Completeness fleet, part 1: on a plain run, the Counter, Rng, PortState,
/// Queue and FlowRecv tampers land and move the digest; the Sketch class is
/// absent, so the hook reports `false` and the digest must not move.
#[test]
fn tamper_fleet_packet_run_counters_and_rng() {
    // Early: Swift drains the incast by 300 µs, and FlowRecv needs a flow
    // in flight.
    let at = Time::from_us(150);
    let mut m = incast();
    m.sim.run_until(at);
    assert!(
        m.sim.live_flows() > 0,
        "no flow in flight at the tamper point"
    );
    let base = m.sim.state_digest();
    for tamper in [
        StateTamper::Counter,
        StateTamper::Rng,
        StateTamper::PortState,
        StateTamper::Queue,
        StateTamper::FlowRecv,
    ] {
        let (landed, before, after) = tampered(|| incast().sim, at, tamper);
        assert_eq!(
            before, base,
            "{tamper:?}: the rebuilt run is not the same run"
        );
        assert!(landed, "{tamper:?} must land on a packet run");
        assert_ne!(base, after, "state digest is blind to {tamper:?}");
    }
    let (landed, before, after) = tampered(|| incast().sim, at, StateTamper::Sketch);
    assert!(
        !landed,
        "Sketch cannot land on a run without streaming stats"
    );
    assert_eq!(before, after, "a no-op Sketch must not move the digest");
}

/// Completeness fleet, part 1b: with no flow in flight there is no
/// reassembly state to tamper with.
#[test]
fn tamper_fleet_no_live_flow() {
    let idle = || Micro::build(&MicroEnv::default()).sim;
    let (landed, before, after) = tampered(idle, Time::ZERO, StateTamper::FlowRecv);
    assert!(!landed, "FlowRecv cannot land with no flow in flight");
    assert_eq!(before, after, "a no-op FlowRecv must not move the digest");
}

/// Completeness fleet, part 2: the Sketch tamper lands on a streaming run
/// and the digest notices (via the sketch fingerprint).
#[test]
fn tamper_fleet_streaming_sketch() {
    let at = Time::from_us(400);
    let (landed, base, after) = tampered(streaming_sim, at, StateTamper::Sketch);
    assert!(landed, "Sketch tamper must land when streaming_stats is on");
    assert_ne!(base, after, "digest is blind to the sketch");
    // And the streaming run stopped there and finished is the straight run.
    let straight = summarize(&streaming_sim().run());
    let mut split = streaming_sim();
    split.run_until(at);
    assert_eq!(
        straight,
        summarize(&split.run()),
        "streaming run diverged across the split"
    );
}
