//! PFC (lossless) and lossy-mode end-to-end behavior.

use experiments::micro::{goodput_gbps, Micro, MicroEnv};
use experiments::probe::Probed;
use netsim::{AckPriority, FlowSpec, Sim, SimConfig, SwitchConfig, Topology};
use simcore::{Rate, Time};
use transport::CcSpec;

/// An uncontrolled incast into a small-buffer switch: PFC must engage and
/// prevent every drop; all data still arrives.
#[test]
fn pfc_prevents_drops_under_blast_incast() {
    let mut m = Micro::build(&MicroEnv {
        senders: 12,
        end: Time::from_ms(20),
        switch: SwitchConfig {
            buffer_bytes: 2_000_000, // small relative to 12 blasting senders
            pfc_lossless_prios: 1,
            // Headroom must absorb 2*prop*rate (= 75 KB at 3us/100G) plus
            // an MTU per port after a pause lands — exactly why headroom
            // limits the number of lossless priorities (§2.2).
            pfc_headroom_bytes: 80_000,
            ..Default::default()
        },
        ..Default::default()
    });
    for s in 1..=12 {
        m.add_flow(s, 2_000_000, Time::ZERO, 0, 0, &CcSpec::Blast);
    }
    let res = m.sim.run();
    assert_eq!(res.counters.drops, 0, "lossless mode must not drop");
    assert!(res.counters.pfc_pauses > 0, "PFC should have engaged");
    assert!(
        res.counters.pfc_resumes > 0,
        "PFC should also have released"
    );
    assert_eq!(res.completion_rate(), 1.0, "all flows complete");
    assert!(
        res.counters.max_buffer_used <= 2_000_000,
        "buffer exceeded its physical capacity: {}",
        res.counters.max_buffer_used
    );
    // A PFC frame is MAC control, not a packet: it takes no arena slot.
    // Every slot went to a data segment or a probe and to the answer it
    // turned into — nothing was dropped and every flow finished (asserted
    // above), so no segment is left in flight.
    let c = &res.counters;
    assert_eq!(
        c.arena_allocs,
        2 * (c.data_delivered + c.probes),
        "slots beyond data and probes ({} pauses, {} resumes)",
        c.pfc_pauses,
        c.pfc_resumes
    );
}

/// The same incast with PFC disabled: drops happen, IRN-style recovery
/// retransmits, and the flows still complete.
#[test]
fn lossy_mode_drops_and_recovers() {
    let mut m = Micro::build(&MicroEnv {
        senders: 12,
        end: Time::from_ms(40),
        switch: SwitchConfig {
            buffer_bytes: 500_000,
            pfc_enabled: false,
            ..Default::default()
        },
        ..Default::default()
    });
    for s in 1..=12 {
        m.add_flow(s, 1_000_000, Time::ZERO, 0, 0, &CcSpec::Blast);
    }
    let res = m.sim.run();
    assert!(res.counters.drops > 0, "tiny buffer + blast must drop");
    let rtx: u64 = res.records.iter().map(|r| r.retransmits).sum();
    assert!(rtx > 0, "retransmissions must recover the drops");
    assert_eq!(
        res.completion_rate(),
        1.0,
        "all flows must complete despite loss"
    );
    for r in &res.records {
        assert_eq!(r.delivered, r.size, "every byte delivered exactly once");
    }
}

/// Swift under lossy mode: congestion control keeps the queue below the
/// drop threshold, so (almost) nothing is lost even without PFC.
#[test]
fn swift_rarely_drops_in_lossy_mode() {
    let mut m = Micro::build(&MicroEnv {
        senders: 8,
        end: Time::from_ms(20),
        switch: SwitchConfig {
            buffer_bytes: 2_000_000,
            pfc_enabled: false,
            ..Default::default()
        },
        ..Default::default()
    });
    let swift = CcSpec::Swift {
        queuing: Time::from_us(4),
        scaling: false,
    };
    for s in 1..=8 {
        m.add_flow(s, 5_000_000, Time::ZERO, 0, 0, &swift);
    }
    let res = m.sim.run();
    assert_eq!(res.completion_rate(), 1.0);
    // Line-rate initial windows clip a little at the very start, but steady
    // state must be loss-free: under 1% of packets overall.
    let total_pkts: u64 = res.records.iter().map(|r| r.size / 1000).sum();
    assert!(
        res.counters.drops < total_pkts / 100,
        "Swift should avoid drops: {} of {total_pkts}",
        res.counters.drops
    );
}

/// Physical priority isolation: with two physical queues, high-priority
/// traffic is served strictly first through the bottleneck.
#[test]
fn physical_priorities_isolate() {
    let mut m = Micro::build(&MicroEnv {
        senders: 2,
        end: Time::from_ms(8),
        num_prios: 2,
        ..Default::default()
    });
    let swift = CcSpec::Swift {
        queuing: Time::from_us(4),
        scaling: false,
    };
    let lo = m.add_flow(1, 50_000_000, Time::ZERO, 0, 0, &swift);
    let hi = m.add_flow(2, 25_000_000, Time::from_ms(1), 1, 1, &swift);
    let Probed { res, goodput, .. } = m.run();
    let hi_fct = res.records[hi as usize].fct().expect("hi done").as_us_f64();
    assert!(
        hi_fct < 2_600.0,
        "physical high priority too slow: {hi_fct}"
    );
    let during = goodput_gbps(&goodput, &[lo], 1_300.0, 2_500.0);
    assert!(
        during < 15.0,
        "low physical priority got {during} Gbps during contention"
    );
}

/// ACKs in the control queue vs in the data queue (PrioPlus*, Fig 16):
/// both configurations must deliver all traffic.
#[test]
fn ack_priority_modes_work() {
    for mode in [AckPriority::Control, AckPriority::SameAsData] {
        let topo = Topology::single_switch(2, Rate::from_gbps(100), Time::from_us(3));
        let cfg = SimConfig {
            ack_prio: mode,
            end_time: Time::from_ms(10),
            ..Default::default()
        };
        let mut sim = Sim::new(&topo, cfg, SwitchConfig::default());
        let swift = CcSpec::Swift {
            queuing: Time::from_us(4),
            scaling: false,
        };
        for s in 1..=2u32 {
            let spec = FlowSpec::new(s, 0, 5_000_000, Time::ZERO);
            sim.add_flow(spec, |p| swift.make(p, Time::ZERO));
        }
        let res = sim.run();
        assert_eq!(res.completion_rate(), 1.0, "mode {mode:?}");
    }
}
