//! netsim integration tests with a minimal fixed-window transport:
//! timing exactness, routing, PFC behavior and port readings — independent
//! of any real congestion-control algorithm.

use netsim::{
    AckEvent, AckKind, FlowSpec, Sim, SimConfig, SwitchConfig, Topology, Transport, TransportCtx,
    TrySend,
};
use simcore::{Rate, Time};

/// Window-based transport with a constant window and no retransmission.
#[derive(Clone)]
struct FixedWindow {
    size: u64,
    mtu: u32,
    window: u64,
    snd_nxt: u64,
    inflight: u64,
    acked: u64,
    delays: Vec<Time>,
}

impl FixedWindow {
    fn new(size: u64, mtu: u32, window: u64) -> Self {
        FixedWindow {
            size,
            mtu,
            window,
            snd_nxt: 0,
            inflight: 0,
            acked: 0,
            delays: Vec::new(),
        }
    }
}

impl Transport for FixedWindow {
    fn on_start(&mut self, _ctx: &mut TransportCtx<'_>) {}
    fn on_ack(&mut self, ack: &AckEvent, _ctx: &mut TransportCtx<'_>) {
        if ack.kind == AckKind::Data {
            self.acked += ack.acked_bytes as u64;
            self.inflight = self.inflight.saturating_sub(ack.acked_bytes as u64);
            self.delays.push(ack.delay);
        }
    }
    fn on_timer(&mut self, _token: u64, _ctx: &mut TransportCtx<'_>) {}
    fn try_send(&mut self, _now: Time) -> TrySend {
        if self.acked >= self.size {
            return TrySend::Finished;
        }
        let remaining = self.size.saturating_sub(self.snd_nxt);
        if remaining == 0 {
            return TrySend::Blocked;
        }
        let bytes = remaining.min(self.mtu as u64) as u32;
        if self.inflight + bytes as u64 > self.window {
            return TrySend::Blocked;
        }
        TrySend::Data {
            seq: self.snd_nxt,
            bytes,
        }
    }
    fn on_sent(&mut self, sent: TrySend, _ctx: &mut TransportCtx<'_>) {
        if let TrySend::Data { bytes, .. } = sent {
            self.snd_nxt += bytes as u64;
            self.inflight += bytes as u64;
        }
    }
    fn is_finished(&self) -> bool {
        self.acked >= self.size
    }
    fn cwnd_bytes(&self) -> f64 {
        self.window as f64
    }
}

fn micro_sim(senders: usize) -> (Sim, Topology) {
    let topo = Topology::single_switch(senders, Rate::from_gbps(100), Time::from_us(3));
    let sim = Sim::new(&topo, SimConfig::default(), SwitchConfig::default());
    (sim, topo)
}

#[test]
fn single_packet_rtt_matches_computed_base_rtt() {
    let (mut sim, _) = micro_sim(1);
    let spec = FlowSpec::new(1, 0, 1000, Time::ZERO);
    let params = sim.flow_params(&spec, 0);
    sim.add_flow(spec, |_| Box::new(FixedWindow::new(1000, 1000, 10_000)));
    let res = sim.run();
    // The first (only) delay sample must equal base RTT exactly: no queues,
    // no noise.
    let r = &res.records[0];
    assert!(r.finish.is_some());
    // FCT = one-way data path latency (receiver-side completion).
    // base_rtt = fwd(data) + rev(ack), so FCT < base_rtt.
    let fct = r.fct().unwrap();
    assert!(fct < params.base_rtt);
    // 2 hops: host ser (83.84ns) + 3us + switch ser + 3us = 6.168us.
    assert_eq!(fct, Time::from_ps(2 * (83_840 + 3_000_000)));
}

#[test]
fn pipelined_flow_fct_is_exact() {
    let (mut sim, _) = micro_sim(1);
    // 100 packets, huge window: FCT = first-packet path latency + 99
    // serializations at the bottleneck (store-and-forward pipelining).
    let spec = FlowSpec::new(1, 0, 100_000, Time::ZERO);
    sim.add_flow(spec, |_| {
        Box::new(FixedWindow::new(100_000, 1000, 10_000_000))
    });
    let res = sim.run();
    let fct = res.records[0].fct().unwrap();
    let first = Time::from_ps(2 * (83_840 + 3_000_000));
    let rest = Time::from_ps(99 * 83_840);
    assert_eq!(fct, first + rest);
}

#[test]
fn ack_clocking_limits_inflight() {
    let (mut sim, _) = micro_sim(1);
    // Window of exactly 2 packets: the flow needs ~size/2 RTT-paced rounds.
    let spec = FlowSpec::new(1, 0, 20_000, Time::ZERO);
    sim.add_flow(spec, |_| Box::new(FixedWindow::new(20_000, 1000, 2_000)));
    let res = sim.run();
    let fct = res.records[0].fct().unwrap();
    // 10 windows of 2 packets, each round ~ one RTT (12.3us): > 100us.
    assert!(fct > Time::from_us(100), "fct {fct}");
    assert_eq!(res.records[0].delivered, 20_000);
}

#[test]
fn two_senders_share_bottleneck_serialization() {
    let (mut sim, _) = micro_sim(2);
    for s in 1..=2 {
        let spec = FlowSpec::new(s, 0, 500_000, Time::ZERO);
        sim.add_flow(spec, |_| {
            Box::new(FixedWindow::new(500_000, 1000, 10_000_000))
        });
    }
    let res = sim.run();
    // Both finish; combined service time ~= sum of serializations at the
    // bottleneck: 1000 packets * 83.84ns ~ 84us (+path).
    let worst = res.records.iter().map(|r| r.fct().unwrap()).max().unwrap();
    assert!(worst >= Time::from_us(83), "{worst}");
    assert!(worst < Time::from_us(120), "{worst}");
}

#[test]
fn fat_tree_all_pairs_reachable() {
    let topo = Topology::fat_tree(4, Rate::from_gbps(100), Time::from_us(1));
    let mut sim = Sim::new(
        &topo,
        SimConfig {
            end_time: Time::from_ms(5),
            ..Default::default()
        },
        SwitchConfig::default(),
    );
    // One small flow between every adjacent host pair (ring coverage).
    let hosts = topo.hosts.clone();
    for i in 0..hosts.len() {
        let spec = FlowSpec::new(hosts[i], hosts[(i + 5) % hosts.len()], 10_000, Time::ZERO);
        sim.add_flow(spec, |_| Box::new(FixedWindow::new(10_000, 1000, 100_000)));
    }
    let res = sim.run();
    assert_eq!(res.completion_rate(), 1.0);
}

#[test]
fn intra_pod_flows_have_shorter_base_rtt_than_cross_pod() {
    let topo = Topology::fat_tree(4, Rate::from_gbps(100), Time::from_us(1));
    let sim = Sim::new(&topo, SimConfig::default(), SwitchConfig::default());
    let h = &topo.hosts;
    // h[0] and h[1] share an edge switch; h[0] and h[15] are cross-pod.
    let same_rack = sim.flow_params(&FlowSpec::new(h[0], h[1], 1000, Time::ZERO), 0);
    let cross_pod = sim.flow_params(&FlowSpec::new(h[0], h[15], 1000, Time::ZERO), 1);
    assert!(same_rack.base_rtt < cross_pod.base_rtt);
    // Same-rack: 2 hops each way; cross-pod: 6 hops each way.
    let ratio = cross_pod.base_rtt.as_ps() as f64 / same_rack.base_rtt.as_ps() as f64;
    assert!((2.5..3.5).contains(&ratio), "hop ratio {ratio}");
}

#[test]
fn queue_monitor_reports_backlog() {
    let (mut sim, _) = micro_sim(4);
    let switch = 5; // hosts 0..=4, switch is node 5
    for s in 1..=4 {
        let spec = FlowSpec::new(s, 0, 1_000_000, Time::ZERO);
        sim.add_flow(spec, |_| {
            Box::new(FixedWindow::new(1_000_000, 1000, 10_000_000))
        });
    }
    // Read the bottleneck's backlog every 5 µs, between `run_until` steps.
    let mut peak = 0;
    let mut t = Time::from_us(5);
    while t < sim.config().end_time {
        sim.run_until(t);
        peak = peak.max(sim.port(switch, 0).queued_bytes);
        t += Time::from_us(5);
    }
    // 4 unthrottled senders into one port: the queue must build up to
    // roughly 3 windows' worth of data at peak.
    assert!(peak > 1_000_000, "peak queue {peak} bytes");
}

#[test]
fn ecn_marks_appear_under_congestion() {
    let topo = Topology::single_switch(4, Rate::from_gbps(100), Time::from_us(3));
    let sw_cfg = SwitchConfig {
        ecn_kmin: 30_000,
        ecn_kmax: 100_000,
        ecn_pmax: 1.0,
        ..Default::default()
    };
    let mut sim = Sim::new(&topo, SimConfig::default(), sw_cfg);
    for s in 1..=4 {
        let spec = FlowSpec::new(s, 0, 1_000_000, Time::ZERO);
        sim.add_flow(spec, |_| {
            Box::new(FixedWindow::new(1_000_000, 1000, 10_000_000))
        });
    }
    let res = sim.run();
    assert!(res.counters.ecn_marks > 100, "{}", res.counters.ecn_marks);
}

#[test]
fn per_flow_ecmp_is_stable_under_rerun() {
    let topo = Topology::leaf_spine(
        2,
        2,
        2,
        Rate::from_gbps(100),
        Rate::from_gbps(100),
        Time::from_us(1),
    );
    let mk = || {
        let mut sim = Sim::new(
            &topo,
            SimConfig {
                seed: 5,
                ..Default::default()
            },
            SwitchConfig::default(),
        );
        let spec = FlowSpec::new(topo.hosts[0], topo.hosts[3], 100_000, Time::ZERO);
        sim.add_flow(spec, |_| {
            Box::new(FixedWindow::new(100_000, 1000, 1_000_000))
        });
        let res = sim.run();
        res.records[0].fct().unwrap()
    };
    assert_eq!(mk(), mk());
}

#[test]
fn fat_tree_cross_pod_has_multiple_ecmp_paths() {
    let topo = Topology::fat_tree(4, Rate::from_gbps(100), Time::from_us(1));
    let sim = Sim::new(&topo, SimConfig::default(), SwitchConfig::default());
    let h = &topo.hosts;
    // The edge switch of h[0] is the first switch node (id 16 in k=4
    // builder order); toward a cross-pod destination it must hold two
    // equal-cost uplinks, and different flows should spread across them.
    let edge = 16u32;
    let mut ports = std::collections::BTreeSet::new();
    for f in 0..64u32 {
        ports.insert(sim.route_port(edge, h[15], f));
    }
    assert!(
        ports.len() >= 2,
        "cross-pod ECMP should use >=2 uplinks, used {ports:?}"
    );
    // Toward a same-rack destination there is exactly one (downlink) port.
    let mut down = std::collections::BTreeSet::new();
    for f in 0..16u32 {
        down.insert(sim.route_port(edge, h[1], f));
    }
    assert_eq!(down.len(), 1, "single path to a directly attached host");
}

#[test]
fn control_packets_bypass_data_backlog() {
    // ACKs ride the control queue: even with a deep data queue at the
    // bottleneck, the ack of an early packet returns promptly, which is
    // what keeps delay measurements fresh for PrioPlus.
    let (mut sim, _) = micro_sim(3);
    // Two senders flood the bottleneck (net +100G of queue growth); a
    // third sends one packet once the backlog exists.
    for s in 1..=2 {
        let spec = FlowSpec::new(s, 0, 2_000_000, Time::ZERO);
        sim.add_flow(spec, |_| {
            Box::new(FixedWindow::new(2_000_000, 1000, 10_000_000))
        });
    }
    let spec2 = FlowSpec::new(3, 0, 1_000, Time::from_us(50));
    sim.add_flow(spec2, |_| Box::new(FixedWindow::new(1_000, 1000, 10_000)));
    let res = sim.run();
    // The one-packet flow's FCT includes the data queue wait (strict FIFO
    // within the data priority)...
    let fct2 = res.records[2].fct().unwrap();
    assert!(
        fct2 > Time::from_us(50),
        "must wait behind the flood: {fct2}"
    );
    // ...but both flows complete: acks were never starved by data.
    assert_eq!(res.completion_rate(), 1.0);
}
